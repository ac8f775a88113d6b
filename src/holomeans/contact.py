"""Contact-direction probes and the contact asymptotic mean value property.

Weak solutions without classical derivatives are tested by touching the
field with affine probes and measuring one-sided behaviour along unit
directions ``xi``.  The symmetrised product

    xi v eta = 1/2 * [[2 Re(xi) Re(eta),  Im(xi eta)],
                      [Im(xi eta),        2 Im(xi) Im(eta)]]

has eigenvalues (Re(conj(xi) eta) +- |xi| |eta|) / 2; its largest eigenvalue
drives the one-sided jet membership test, and its trace direction drives the
contact form of the asymptotic mean value property: at a touching point, the
projection of the pair-mean increment onto ``xi`` must not fall below zero
at first order in the radius.

A probe claims only the two slope coefficients (sigma, tau); the field value
at the base point is always sampled from the field itself.  The first-order
behaviour of the projected increment has a closed form, the xi envelope,
which the verdicts cross-check.  The full-field report evaluates every
direction of a uniform fan at every sample point from the sweep-to-limit
step of every verdict (``asymptotics._limits``), run once on all points'
affine surrogates together; :func:`camvp_verdict` is its one-probe call.
Each point's fit serves all its directions, since projection onto a
direction commutes with the linear extrapolation.  The
rows are assembled in array passes over (points, directions): projected
limits, fit residuals (the extrapolation's RMS, ``asymptotics._rms``),
envelopes (one evaluation of the system's mu, ``pdesystem.mu_of``, for
every point), gaps and decisions, which the report reads as arrays.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import geometry
from .asymptotics import (
    REJECT_TOL,
    LimitEstimate,
    SweepConfig,
    _decide,
    _limits,
    _live_jets,
    _rms,
    extrapolate,
)
from .density import _per_point
from .errors import InvalidParameterError, _raise_first
from .geometry import (
    Jet,
    _modulus,
    _unit_nodes,
    affine_eval,
    field_values,
    sample_field,
)
from .pdesystem import FIELD_FLOOR, _cr_residuals, mu_of

__all__ = [
    "ContactProbe",
    "MembershipResult",
    "ContactAmvpResult",
    "ContactReport",
    "unit_directions",
    "vee_matrix",
    "vee_eigenvalues",
    "xi_envelope",
    "jet_membership",
    "camvp_verdict",
    "contact_solution_verdict",
]

UNIT_TOL = 1e-12
ZERO_FLOOR = 1e-12
DEFAULT_DIRECTION_COUNT = 16
_MEMBERSHIP = {"vanishes": "member", "converges_nonzero": "rejected",
               "inconclusive": "inconclusive"}


def _check_unit(xi):
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > UNIT_TOL:
        raise InvalidParameterError(
            f"direction must be a unit complex number, got |xi| = {abs(xi):.12g}"
        )
    return xi


def _check_finite(**parts):
    for name, value in parts.items():
        if not cmath.isfinite(complex(value)):
            raise InvalidParameterError(f"{name} must be finite, got {complex(value)}")


def unit_directions(count=DEFAULT_DIRECTION_COUNT):
    """Uniform fan of ``count`` unit directions starting at 1."""
    if count < 1:
        raise InvalidParameterError(f"need at least one direction, got {count}")
    return np.exp(2j * np.pi * np.arange(count) / count)


def vee_matrix(xi, eta):
    """Symmetrised real 2x2 product of two complex numbers."""
    xi = complex(xi)
    eta = complex(eta)
    prod = xi * eta
    return 0.5 * np.array(
        [
            [2.0 * xi.real * eta.real, prod.imag],
            [prod.imag, 2.0 * xi.imag * eta.imag],
        ]
    )


def vee_eigenvalues(xi, eta):
    """Eigenvalue pair (smallest, largest) of the symmetrised product.

    Closed form: (Re(conj(xi) eta) -+ |xi| |eta|) / 2.
    """
    xi = complex(xi)
    eta = complex(eta)
    mid = (xi.conjugate() * eta).real
    spread = abs(xi) * abs(eta)
    return 0.5 * (mid - spread), 0.5 * (mid + spread)


@dataclass(frozen=True)
class ContactProbe:
    """Claimed one-sided jet (sigma, tau) at a base point along direction xi.

    The probe carries no field value; every test samples the field at the
    base point, so the claim under test is the slope pair alone.
    """

    base: complex
    xi: complex
    sigma: complex
    tau: complex

    def __post_init__(self):
        _check_unit(self.xi)
        _check_finite(base=self.base, sigma=self.sigma, tau=self.tau)


def xi_envelope(omega, sigma, tau, xi, d):
    """First-order coefficient of the xi-projected pair-mean increment.

    Closed form; the branch at ``omega = 0`` uses the small-argument
    convexity ratio of the density:

        omega != 0:  Re(conj(xi) tau)
                     + mu(|omega|) Re((omega / conj omega) conj(xi sigma))
        omega == 0:  Re(conj(xi) tau) + |(a - 1) / (a + 1)| |sigma|,
                     a = small-argument convexity ratio.

    The one-jet, one-direction call of the envelope fan.  A non-finite
    ``omega``, ``sigma`` or ``tau`` raises :class:`InvalidParameterError`.
    """
    xi = _check_unit(xi)
    _check_finite(omega=omega, sigma=sigma, tau=tau)
    return float(_xi_envelopes([omega], [sigma], [tau], np.array([xi]), d)[0, 0])


def _xi_envelopes(omega, sigma, tau, xi, d):
    """:func:`xi_envelope` of every jet along every direction, (jets, directions).

    ``omega``, ``sigma`` and ``tau`` hold one jet per entry; the system's
    coefficient mu of every nonzero ``|omega|`` comes from one
    :func:`~holomeans.pdesystem.mu_of` call.  A jet whose mu cannot be
    evaluated (a density that is not a power law, past the overflow of F')
    gets NaN envelopes; the other jets keep theirs.
    """
    omega, sigma, tau = (np.asarray(a, dtype=complex) for a in (omega, sigma, tau))
    mod = _modulus(omega)
    zero = mod < ZERO_FLOOR
    tail = np.empty((omega.size, np.size(xi)))
    if np.any(zero):
        alpha = d.lambda_at_zero
        if not (np.isfinite(alpha) and alpha > 0.0):
            raise InvalidParameterError(
                "envelope at a zero of the field needs a density with "
                "declared small-argument behaviour"
            )
        coeff = abs((alpha - 1.0) / (alpha + 1.0))
        tail[zero] = coeff * _modulus(sigma[zero])[:, None]
    w, mu = omega[~zero, None], _per_point(lambda s: mu_of(d, s), mod[~zero])[0]
    tail[~zero] = mu[:, None] * (w / np.conj(w) * np.conj(xi * sigma[~zero, None])).real
    return (np.conj(xi) * tau[:, None]).real + tail


@dataclass(frozen=True)
class MembershipResult:
    """One-sided jet membership decision along one direction."""

    point: complex
    xi: complex
    verdict: str  # member | rejected | inconclusive
    estimate: LimitEstimate
    ratios: tuple


def jet_membership(f, probe, cfg=None):
    """Test whether the probe's slope pair touches ``f`` from the xi side.

    At each radius the remainder E = f - [f(base) + affine slopes] is
    sampled on the circle and the largest eigenvalue of xi v E, divided by
    the radius, is recorded; the sequence is extrapolated to radius zero.
    The jet is a member when the limit is at most ``ZERO_TOL`` and
    rejected when it is at least ``REJECT_TOL``; a poor fit is inconclusive.
    """
    cfg = cfg or SweepConfig()
    xi = _check_unit(probe.xi)
    z = complex(probe.base)
    fz = complex(field_values(f, [z])[0])
    radii = cfg.radii()

    # Every circle of the ladder in one field call, row k at radius k.
    nodes = z + radii[:, None] * _unit_nodes(geometry.DEFAULT_CIRCLE_NODES)
    values = sample_field(f, nodes)
    affine = fz + probe.sigma * (nodes - z) + probe.tau * np.conj(nodes - z)
    remainder = values - affine
    top = 0.5 * ((np.conj(xi) * remainder).real + np.abs(remainder))
    ratios = np.max(top, axis=1) / radii

    est = extrapolate(radii, ratios.astype(complex))
    return MembershipResult(
        point=z,
        xi=xi,
        verdict=_MEMBERSHIP[str(_decide(est.limit.real, est.verdict != "inconclusive",
                                        reject=REJECT_TOL))],
        estimate=est,
        ratios=tuple(float(v) for v in ratios),
    )


@dataclass(frozen=True)
class ContactAmvpResult:
    """Contact mean value verdict for one point and one direction.

    A result given only its point and direction is an untestable one.
    """

    point: complex
    xi: complex
    status: str = "untestable"  # holds | fails
    limit: float = float("nan")
    fit_residual: float = float("nan")
    envelope: float = float("nan")
    envelope_gap: float = float("nan")
    consistent: bool = False


def _direction_rows(points, xi, cols, jets, d):
    """Project every point's pair-increment fit onto every direction and classify.

    ``points``, the :func:`~holomeans.asymptotics._limits` columns ``cols``
    and the :class:`Jet` of arrays ``jets`` run over the points, ``xi`` over
    the directions; limits, fit residuals, envelopes, gaps and decisions are
    (points, directions) arrays.  Limits and fit residuals project the limit
    and the residual vector of each point's one linear fit.  The decision is
    one-sided and decisive: the property holds along xi exactly when the
    projected limit is at least ``-ZERO_TOL``, and a row is consistent when
    its envelope is decided alike.  Fit quality is reported per direction
    but does not gate the decision.  Returns the rows point by point, each
    point's directions in order, with the ``holds`` and ``consistent`` flags
    of the rows in that order.
    """
    conj_xi = np.conj(xi)
    limits = (conj_xi * cols["limit"][:, None]).real
    projected = (conj_xi[:, None] * cols["residual"][:, None, :]).real
    fit_residuals = _rms(projected, cols["count"][:, None])
    envelopes = _xi_envelopes(jets.value, jets.dz, jets.dzbar, xi, d)
    gaps = np.abs(limits - envelopes)
    holds = _decide(-limits) == "vanishes"
    consistent = holds == (_decide(-envelopes) == "vanishes")
    columns = (limits, fit_residuals, envelopes, gaps, holds, consistent)
    xi_list = np.asarray(xi, dtype=complex).tolist()
    rows = []
    for z, *per_direction in zip(np.asarray(points, dtype=complex).tolist(),
                                 *(c.tolist() for c in columns)):
        for x, lim, res, env, gap, ok, agrees in zip(xi_list, *per_direction):
            rows.append(ContactAmvpResult(
                point=z,
                xi=x,
                status="holds" if ok else "fails",
                limit=lim,
                fit_residual=res,
                envelope=env,
                envelope_gap=gap,
                consistent=agrees,
            ))
    return rows, holds.ravel(), consistent.ravel()


def _surrogate_rows(jets, xi, d, cfg):
    """:func:`_direction_rows` of the affine touching surrogates of the
    :class:`Jet` of arrays ``jets``, all swept and fitted in one batch; the
    first point whose sweep or fit failed raises its error."""
    # One affine touching surrogate per point, as a jet of (points, 1) arrays.
    surrogate = Jet(*(part[:, None] for part in (jets.base, jets.value, jets.dz, jets.dzbar)))
    cols, errors = _limits("pair_increment", lambda zeta: affine_eval(surrogate, zeta),
                           jets.base, d, cfg)
    _raise_first(errors + cols["errors"])
    return _direction_rows(jets.base, xi, cols, jets, d)


def camvp_verdict(f, probe, d, cfg=None):
    """Contact asymptotic mean value property for one probe.

    The field value at the base point together with the probe's slope pair
    forms an affine touching surrogate; the xi projection of the surrogate's
    pair-mean increment, divided by the radius, must extrapolate to a limit
    no lower than ``-ZERO_TOL``.  A field value below ``FIELD_FLOOR`` makes
    the mean undefined, reported as ``untestable``.  The one-probe call of
    the surrogate sweep of :func:`contact_solution_verdict`.
    """
    xi = _check_unit(probe.xi)
    z = complex(probe.base)
    fz = complex(field_values(f, [z])[0])
    if abs(fz) < FIELD_FLOOR:
        return ContactAmvpResult(z, xi)
    jets = Jet(*(np.array([complex(part)]) for part in (z, fz, probe.sigma, probe.tau)))
    return _surrogate_rows(jets, np.array([xi]), d, cfg)[0][0]


@dataclass(frozen=True)
class ContactReport:
    """Contact-solution assessment of a field over points and directions."""

    rows: tuple
    untestable_points: tuple
    camvp_pass: bool
    envelope_pass: bool
    residual_pass: bool
    consistent: bool


def contact_solution_verdict(f, points, d, directions=DEFAULT_DIRECTION_COUNT, cfg=None):
    """Assess a field as a contact solution over a grid of probes.

    At every point the field's finite-difference jet is turned into a
    touching probe, and the pair-mean increments of all probes are swept in
    one batch; every direction of the fan reuses its point's sweep, since
    projecting onto a direction commutes with the least-squares
    extrapolation.  The first point whose sweep failed raises its error.
    ``directions`` is either a count (uniform fan) or an explicit iterable
    of unit directions.  Three assessments are aggregated: the contact mean
    value verdicts, the closed form envelopes, and the pointwise system
    residuals; ``consistent`` asserts that all three agree everywhere.
    """
    if np.isscalar(directions):
        xi_list = unit_directions(int(directions))
    else:
        xi_list = np.asarray([_check_unit(xi) for xi in directions], dtype=complex)
        if xi_list.size == 0:
            raise InvalidParameterError("need at least one direction")

    pts, low, jets, errors = _live_jets(f, points)
    _raise_first(errors)
    residuals, errors = _cr_residuals(jets, d)
    _raise_first(errors)
    rows, holds, agrees = _surrogate_rows(jets, xi_list, d, cfg)
    # a row is consistent exactly when its envelope is decided as its limit is
    camvp_pass, envelope_pass, residual_pass, agree = (
        bool(flags.size) and bool(flags.all())
        for flags in (holds, holds == agrees, _decide(np.abs(residuals)) == "vanishes", agrees))
    return ContactReport(
        rows=tuple(rows),
        untestable_points=tuple(complex(z) for z in pts[low]),
        camvp_pass=camvp_pass,
        envelope_pass=envelope_pass,
        residual_pass=residual_pass,
        consistent=agree and camvp_pass == envelope_pass == residual_pass,
    )
