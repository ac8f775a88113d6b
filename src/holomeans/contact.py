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
direction of a uniform fan at every sample point from one radius sweep of
all points' affine surrogates together (one batched circle-mean solve for
the whole ladder); each point's sweep serves all its directions, since
projection onto a direction commutes with the linear extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    LimitEstimate,
    SweepConfig,
    ToleranceConfig,
    _increment_ratios,
    _raise_first,
    _sweeps,
    extrapolate,
    sweep,
)
from .density import lambda_of
from .errors import InvalidParameterError
from .geometry import (
    Jet,
    affine_eval,
    circle_rule,
    field_values,
    sample_field,
    wirtinger_jet,
)
from .pdesystem import cr_residual

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


def _field_value(f, z):
    return complex(field_values(f, [z])[0])


def _check_unit(xi):
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > UNIT_TOL:
        raise InvalidParameterError(
            f"direction must be a unit complex number, got |xi| = {abs(xi):.12g}"
        )
    return xi


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


def xi_envelope(omega, sigma, tau, xi, d):
    """First-order coefficient of the xi-projected pair-mean increment.

    Closed form; the branch at ``omega = 0`` uses the small-argument
    convexity ratio of the density:

        omega != 0:  Re(conj(xi) tau)
                     + mu(|omega|) Re((omega / conj omega) conj(xi sigma))
        omega == 0:  Re(conj(xi) tau) + |(a - 1) / (a + 1)| |sigma|,
                     a = small-argument convexity ratio.
    """
    xi = _check_unit(xi)
    omega = complex(omega)
    sigma = complex(sigma)
    tau = complex(tau)
    head = (xi.conjugate() * tau).real
    if abs(omega) < ZERO_FLOOR:
        alpha = d.lambda_at_zero
        if not (np.isfinite(alpha) and alpha > 0.0):
            raise InvalidParameterError(
                "envelope at a zero of the field needs a density with "
                "declared small-argument behaviour"
            )
        coeff = abs((alpha - 1.0) / (alpha + 1.0))
        return float(head + coeff * abs(sigma))
    lam = lambda_of(d, abs(omega))
    mu = (lam - 1.0) / (lam + 1.0)
    phase = omega / omega.conjugate()
    return float(head + mu * (phase * (xi * sigma).conjugate()).real)


@dataclass(frozen=True)
class MembershipResult:
    """One-sided jet membership decision along one direction."""

    point: complex
    xi: complex
    verdict: str  # member | rejected | inconclusive
    estimate: LimitEstimate
    ratios: tuple


def jet_membership(
    f,
    probe,
    cfg=None,
    member_tol=1e-4,
    reject_tol=1e-3,
    tol=None,
):
    """Test whether the probe's slope pair touches ``f`` from the xi side.

    At each radius the remainder E = f - [f(base) + affine slopes] is
    sampled on the circle and the largest eigenvalue of xi v E, divided by
    the radius, is recorded; the sequence is extrapolated to radius zero.
    The jet is a member when the limit is at most ``member_tol`` and
    rejected when it is at least ``reject_tol``; the gap between the two
    thresholds absorbs extrapolation noise.
    """
    if member_tol >= reject_tol:
        raise InvalidParameterError(
            f"member_tol ({member_tol:g}) must be below reject_tol ({reject_tol:g})"
        )
    cfg = cfg or SweepConfig()
    tol = tol or ToleranceConfig()
    xi = _check_unit(probe.xi)
    z = complex(probe.base)
    fz = _field_value(f, z)
    radii = cfg.radii()

    ratios = []
    for r in radii:
        q = circle_rule(z, r, cfg.node_count)
        values = sample_field(f, q.nodes)
        affine = (
            fz
            + probe.sigma * (q.nodes - z)
            + probe.tau * np.conj(q.nodes - z)
        )
        remainder = values - affine
        top = 0.5 * ((np.conj(xi) * remainder).real + np.abs(remainder))
        ratios.append(float(np.max(top)) / r)
    ratios = np.asarray(ratios, dtype=float)

    est = extrapolate(radii, ratios.astype(complex), tol)
    limit = est.limit.real
    if est.verdict == "inconclusive":
        verdict = "inconclusive"
    elif limit <= member_tol:
        verdict = "member"
    elif limit >= reject_tol:
        verdict = "rejected"
    else:
        verdict = "inconclusive"
    return MembershipResult(
        point=z,
        xi=xi,
        verdict=verdict,
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


def _direction_rows(z, xi_list, s, jet, d, tol):
    """Project one pair-increment sweep onto every direction and classify.

    The decision is one-sided and decisive: the property holds along xi
    exactly when the projected limit stays above ``-amvp_tol``.  Fit quality
    is reported per direction but does not gate the decision.
    """
    radii, ratios = _increment_ratios(s)
    est = extrapolate(radii, ratios, tol)
    design = np.stack([np.ones_like(radii), radii], axis=1)
    fitted = design @ np.array([est.limit, est.slope])
    residual_vec = ratios - fitted

    rows = []
    for xi in xi_list:
        limit = (np.conj(xi) * est.limit).real
        fit_residual = float(np.sqrt(np.mean((np.conj(xi) * residual_vec).real ** 2)))
        envelope = xi_envelope(jet.value, jet.dz, jet.dzbar, xi, d)
        gap = abs(limit - envelope)
        status = "holds" if limit >= -tol.amvp_tol else "fails"
        env_says = envelope >= -tol.amvp_tol
        rows.append(
            ContactAmvpResult(
                point=z,
                xi=complex(xi),
                status=status,
                limit=float(limit),
                fit_residual=fit_residual,
                envelope=float(envelope),
                envelope_gap=float(gap),
                consistent=bool((status == "holds") == env_says),
            )
        )
    return rows


def camvp_verdict(f, probe, d, cfg=None, tol=None):
    """Contact asymptotic mean value property for one probe.

    The field value at the base point together with the probe's slope pair
    forms an affine touching surrogate; the xi projection of the surrogate's
    pair-mean increment, divided by the radius, must extrapolate to a limit
    no lower than ``-amvp_tol``.  A vanishing field value makes the mean
    undefined, reported as ``untestable``.
    """
    cfg = cfg or SweepConfig()
    tol = tol or ToleranceConfig()
    xi = _check_unit(probe.xi)
    z = complex(probe.base)
    fz = _field_value(f, z)
    if abs(fz) < tol.field_floor:
        return ContactAmvpResult(z, xi)
    jet = Jet(base=z, value=fz, dz=complex(probe.sigma), dzbar=complex(probe.tau))

    def affine(pts):
        return affine_eval(jet, pts)

    s = sweep("pair_increment", affine, z, d, cfg)
    return _direction_rows(z, [xi], s, jet, d, tol)[0]


@dataclass(frozen=True)
class ContactReport:
    """Contact-solution assessment of a field over points and directions."""

    rows: tuple
    untestable_points: tuple
    camvp_pass: bool
    envelope_pass: bool
    residual_pass: bool
    consistent: bool


def contact_solution_verdict(
    f,
    points,
    d,
    directions=DEFAULT_DIRECTION_COUNT,
    cfg=None,
    tol=None,
):
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
    cfg = cfg or SweepConfig()
    tol = tol or ToleranceConfig()
    if np.isscalar(directions):
        xi_list = unit_directions(int(directions))
    else:
        xi_list = np.asarray([_check_unit(xi) for xi in directions], dtype=complex)
        if xi_list.size == 0:
            raise InvalidParameterError("need at least one direction")

    pts = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    low = np.abs(field_values(f, pts)) < tol.field_floor
    live = pts[~low]
    jets = [wirtinger_jet(f, z) for z in live]
    residual_ok = [abs(cr_residual(jet, d)) <= tol.residual_tol for jet in jets]
    # One affine touching surrogate per point, as a jet of (points, 1) arrays.
    surrogate = Jet(
        base=live[:, None],
        value=np.array([jet.value for jet in jets], dtype=complex)[:, None],
        dz=np.array([jet.dz for jet in jets], dtype=complex)[:, None],
        dzbar=np.array([jet.dzbar for jet in jets], dtype=complex)[:, None],
    )
    sweeps = _sweeps("pair_increment", lambda zeta: affine_eval(surrogate, zeta),
                     live, d, cfg)
    _raise_first(sweeps)

    rows = []
    for z, jet, s in zip(live, jets, sweeps):
        rows.extend(_direction_rows(complex(z), xi_list, s, jet, d, tol))
    untestable = [complex(z) for z in pts[low]]

    camvp_pass = bool(rows) and all(row.status == "holds" for row in rows)
    envelope_pass = bool(rows) and all(
        row.envelope >= -tol.amvp_tol for row in rows
    )
    residual_pass = bool(residual_ok) and all(residual_ok)
    consistent = (
        bool(rows)
        and all(row.consistent for row in rows)
        and camvp_pass == envelope_pass
        and camvp_pass == residual_pass
    )
    return ContactReport(
        rows=tuple(rows),
        untestable_points=tuple(untestable),
        camvp_pass=camvp_pass,
        envelope_pass=envelope_pass,
        residual_pass=residual_pass,
        consistent=bool(consistent),
    )
