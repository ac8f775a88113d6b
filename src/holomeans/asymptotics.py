"""Radius sweeps, limit extrapolation, and asymptotic verdicts.

A sweep computes one of the circle means at a geometric ladder of radii
``r_k = r0 * rho**k``; extrapolation fits the complex linear model
``value ~ limit + slope * r`` by least squares and classifies the limit:

* ``vanishes``           |limit| <= ZERO_TOL and the fit is credible
* ``converges_nonzero``  |limit| >  ZERO_TOL and the fit is credible
* ``inconclusive``       the residual of the fit exceeds its gate

The fit gate is ``FIT_TOL_COEFF * max(max_k |value_k|, ZERO_TOL)``; the
``ZERO_TOL`` floor keeps sweeps whose values are uniformly at noise level
(e.g. exactly holomorphic data) conclusive instead of comparing noise
against a vanishing fraction of itself.

Every verdict decides this way, through :func:`_decide`, on the modulus of
a limit or residual, or on minus a one-sided limit; jet membership also
leaves sizes below ``REJECT_TOL`` undecided.

Three verdicts build on sweeps: holomorphy of a field through the
conjugate-transformed mean, membership in the nonlinear Cauchy-Riemann
system through the derivative-detecting mean, and the asymptotic mean value
property through the pair mean.  Each one cross-checks the extrapolated
limit against the analytic first-order prediction computed from a finite
difference jet, and flags disagreement instead of hiding it.

A verdict sweeps all its points together: points where the field falls
below ``FIELD_FLOOR`` are set aside as untestable, and the whole ladder of
the others is one batched circle-mean solve.  A radius that fails for one
point is recorded in that point's sweep alone.  The rows are then assembled
in array passes over the points: one field call samples every jet, the
analytic predictions are array expressions, and every sweep sharing a
radius ladder is extrapolated by one least-squares solve; Python only
builds the result rows.
A point left with too few radii, or whose row cannot be computed, keeps its
:class:`HolomeansError` in its slot of the rows; the public verdicts raise
the first of them (in the order given), while the command line interface
writes each as an ``error`` row.  :func:`sweep` and :func:`extrapolate` are
the one-point calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .density import _per_point, lambda_of, young_conjugate
from .errors import (
    HolomeansError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSweepError,
    _raise_first,
)
from .geometry import Jet, _modulus, _wirtinger_jets, field_values
from .means import SolverConfig, _ladder_means
from .pdesystem import FIELD_FLOOR, _cr_residuals

__all__ = [
    "SweepConfig",
    "RadiusSweep",
    "LimitEstimate",
    "HolomorphyVerdict",
    "SystemVerdict",
    "AmvpVerdict",
    "sweep",
    "extrapolate",
    "holomorphy_verdict",
    "system_verdict",
    "amvp_verdict",
]

# Decision thresholds (module docstring).  Jet membership's undecided band up to
# REJECT_TOL absorbs extrapolation noise; MATCH_TOL bounds the gap between a
# sweep's limit and its analytic prediction for a ``consistent`` row.
ZERO_TOL = 1e-4
REJECT_TOL = 1e-3
FIT_TOL_COEFF = 1e-3
MATCH_TOL = 1e-3


def _decide(size, credible=True, reject=ZERO_TOL):
    """Sort sizes, elementwise, into ``vanishes`` (up to ``ZERO_TOL``),
    ``converges_nonzero`` (from ``reject`` on, and NaN) or ``inconclusive``
    (in between, and wherever ``credible`` is false)."""
    decided = np.where(size <= ZERO_TOL, "vanishes",
                       np.where(size < reject, "inconclusive", "converges_nonzero"))
    return np.where(credible, decided, "inconclusive")


_decide_membership = functools.partial(_decide, reject=REJECT_TOL)


@dataclass(frozen=True)
class SweepConfig:
    """Geometric radius ladder and solver settings for sweeps."""

    r0: float = 0.1
    rho: float = 0.5
    count: int = 8
    node_count: int = 64
    min_successes: int = 4
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not 0.0 < self.r0 < np.inf:
            raise InvalidParameterError(f"r0 must be positive and finite, got {self.r0}")
        if not 0.0 < self.rho < 1.0:
            raise InvalidParameterError(f"rho must lie in (0, 1), got {self.rho}")
        if self.count < 2:
            raise InvalidParameterError(f"count must be >= 2, got {self.count}")
        if self.node_count < 8:
            raise InvalidParameterError(f"need at least 8 circle nodes, got {self.node_count}")
        if self.min_successes < 1:
            raise InvalidParameterError(f"min_successes must be >= 1, got {self.min_successes}")

    def radii(self):
        return self.r0 * self.rho ** np.arange(self.count)


@dataclass(frozen=True)
class RadiusSweep:
    """Values of one mean along the radius ladder.

    ``failures`` records (radius, reason) pairs for radii whose solve did not
    produce a usable value; ``extras`` carries per-radius diagnostics: the
    sup-mean support count, or the first-order residual ``foc_residual``
    and the Newton ``iterations`` (center plus slope for the pair mean).
    """

    kind: str
    point: complex
    radii: tuple
    values: tuple
    statuses: tuple
    failures: tuple
    extras: tuple = ()


@dataclass(frozen=True)
class LimitEstimate:
    limit: complex
    slope: complex
    fit_residual: float
    verdict: str


# A verdict row given only its point is the row of an untestable point.
_NAN = float("nan")


@dataclass(frozen=True)
class HolomorphyVerdict:
    point: complex
    verdict: str = "untestable"  # holomorphic | not_holomorphic | inconclusive
    estimate: object = None  # LimitEstimate, or None when untestable
    predicted_limit: complex = complex(_NAN, _NAN)
    prediction_gap: float = _NAN
    consistent: bool = False


@dataclass(frozen=True)
class SystemVerdict:
    point: complex
    status: str = "untestable"  # satisfied | violated | inconclusive
    estimate: object = None  # LimitEstimate, or None when untestable
    analytic_residual: complex = complex(_NAN, _NAN)
    sweep_satisfied: object = None  # True | False | None
    analytic_satisfied: object = None  # bool, or None when untestable
    consistent: bool = False


@dataclass(frozen=True)
class AmvpVerdict:
    point: complex
    status: str = "untestable"  # holds | fails
    estimate: object = None  # LimitEstimate, or None when untestable
    holds: object = None  # True | False | None when untestable
    bracket: complex = complex(_NAN, _NAN)
    bracket_gap: float = _NAN
    consistent: bool = False


# sweep kind -> circle mean kind
_SWEEP_MEANS = {
    "variational": "variational",
    "conjugate": "conjugate",
    "pair_increment": "pair",
    "infinity": "infinity",
}
SWEEP_KINDS = tuple(_SWEEP_MEANS)


def _sweeps(kind, f, points, d, cfg):
    """Sweep every point at once: one circle-mean solve over the whole ladder.

    Returns one entry per point: its :class:`RadiusSweep`, or the
    :class:`InsufficientDataError` that :func:`sweep` raises for it alone.
    An error that concerns every point fails every radius for all of them.
    No points give no sweeps, without checking ``cfg``.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        return []
    if kind not in SWEEP_KINDS:
        raise InvalidParameterError(
            f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}"
        )
    cfg = cfg or SweepConfig()
    radii_all = cfg.radii()
    if cfg.min_successes > radii_all.size:
        raise InsufficientDataError(
            f"min_successes ({cfg.min_successes}) exceeds the "
            f"{radii_all.size} radii of the ladder"
        )
    if kind == "pair_increment":
        # A (points, 1) array, shaped like the circles the means sample.
        center_values = field_values(f, pts[:, None])[:, 0]

    try:
        ladder = _ladder_means(_SWEEP_MEANS[kind], f, pts, radii_all, d,
                               cfg.node_count, cfg.solver, cfg.seed)
    except HolomeansError as exc:
        ladder = ((exc,) * pts.size,) * radii_all.size
    found = [[] for _ in pts]  # per point: (radius, value, status, extras)
    failures = [[] for _ in pts]  # per point: (radius, reason)
    for r, results in zip(radii_all, ladder):
        for i, res in enumerate(results):
            if isinstance(res, HolomeansError):
                failures[i].append((float(r), f"{type(res).__name__}: {res}"))
            elif res.status == "failed":
                failures[i].append((float(r), "solver reported failure"))
            elif kind == "pair_increment":
                extras = {
                    "foc_residual": max(res.center.foc_residual, res.slope.foc_residual),
                    "iterations": res.center.iterations + res.slope.iterations,
                }
                found[i].append((float(r), complex(res.value - center_values[i]),
                                 res.status, extras))
            elif kind == "infinity":
                found[i].append((float(r), complex(res.minimizer), res.status,
                                 {"support_count": res.support_count}))
            else:
                found[i].append((float(r), complex(res.minimizer), res.status,
                                 {"foc_residual": res.foc_residual,
                                  "iterations": res.iterations}))

    out = []
    for z, ok, failed in zip(pts, found, failures):
        if len(ok) < cfg.min_successes:
            out.append(InsufficientDataError(
                f"only {len(ok)} of {len(radii_all)} radii produced values; "
                f"need at least {cfg.min_successes} (failures: {failed})"
            ))
            continue
        radii, values, statuses, extras = map(tuple, zip(*ok))
        out.append(RadiusSweep(kind, complex(z), radii, values, statuses,
                               tuple(failed), extras))
    return out


def sweep(kind, f, z, d, cfg=None):
    """Run one mean at every radius of the ladder.

    ``kind`` selects the mean: ``variational`` (derivative-detecting mean),
    ``conjugate`` (conjugate-transformed mean), ``pair_increment`` (pair mean
    value minus the field value at the center) or ``infinity`` (sup mean).
    Radii whose solve fails, or raises a :class:`HolomeansError`, are
    recorded and skipped; fewer than ``cfg.min_successes`` usable radii
    raise :class:`InsufficientDataError`, before any solve when the ladder
    itself is shorter.  Other exceptions propagate.
    """
    return _raise_first(_sweeps(kind, f, [complex(z)], d, cfg))[0]


def extrapolate(radii, values=None):
    """Least-squares linear extrapolation of sweep values to radius zero.

    Accepts a :class:`RadiusSweep` in place of the two arrays.  Returns a
    :class:`LimitEstimate` whose verdict follows the module rules.  The
    one-row call of the batched fit.
    """
    if isinstance(radii, RadiusSweep):
        if values is not None:
            raise InvalidParameterError("pass either a sweep or (radii, values)")
        radii, values = radii.radii, radii.values
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=complex)
    if radii.ndim != 1 or radii.shape != values.shape:
        raise InvalidSweepError("radii and values must be matching 1-d arrays")
    return _raise_first(_extrapolate_rows([radii], [values])[0])[0]


def _ladder_groups(radii_rows):
    """(row indices, radii) for each distinct radius ladder, in order of first use."""
    groups = {}
    for i, radii in enumerate(radii_rows):
        groups.setdefault(tuple(radii), []).append(i)
    return [(np.asarray(idx), np.asarray(key, dtype=float)) for key, idx in groups.items()]


def _extrapolate_rows(radii_rows, value_rows):
    """:func:`extrapolate` of every row, one least-squares solve per radius ladder.

    The rows sharing a ladder are fitted together by one multi-right-hand-side
    ``lstsq``, which gives each row the coefficients of its own fit bit for
    bit.  Values are laid out (rows, radii), so the residual and scale
    reductions run along the contiguous last axis and keep each row's
    summation order.  Returns two lists over the rows: one
    :class:`LimitEstimate` per row, or the :class:`InvalidSweepError` of a
    ladder with fewer than two distinct radii; and each row's residual
    vector ``values - (limit + slope * r)`` over its radii, or None.
    """
    out = [None] * len(radii_rows)
    residuals = [None] * len(radii_rows)
    for idx, radii in _ladder_groups(radii_rows):
        if radii.size < 2 or np.unique(radii).size < 2:
            error = InvalidSweepError("need at least two distinct radii to extrapolate")
            for i in idx:
                out[i] = error
            continue
        values = np.array([value_rows[i] for i in idx], dtype=complex)
        design = np.stack([np.ones_like(radii), radii], axis=1)
        limit, slope = np.linalg.lstsq(design, values.T, rcond=None)[0]
        residual = values - (limit[:, None] + slope[:, None] * radii)
        for i, res in zip(idx.tolist(), residual):
            residuals[i] = res
        fit_residual = np.sqrt(np.mean(np.abs(residual) ** 2, axis=-1))
        scale = np.maximum(np.max(np.abs(values), axis=-1), ZERO_TOL)
        verdict = _decide(_modulus(limit), fit_residual <= FIT_TOL_COEFF * scale)
        columns = (idx, limit, slope, fit_residual, verdict)
        for i, *fields in zip(*(c.tolist() for c in columns)):
            out[i] = LimitEstimate(*fields)
    return out, residuals


def _increment_ratios(s):
    """Radii and increments divided by the radius of a ``pair_increment`` sweep."""
    radii = np.asarray(s.radii, dtype=float)
    return radii, np.asarray(s.values, dtype=complex) / radii


def _verdict_rows(kind, f, points, d, cfg, analytic, row, untestable):
    """One verdict row per point, assembled in array passes over the points.

    Points where |f(z)| falls below ``FIELD_FLOOR`` get ``untestable(z)``.
    The rest are swept together in one batched solve and their jets come
    from one field call; ``analytic(jets)`` returns the first-order
    prediction as an array over the points given, with a list of per-point
    errors, and the sweeps are extrapolated together (increment ratios for
    ``pair_increment``).  A point then gets ``row(z, estimate, prediction)``,
    or the first :class:`HolomeansError` met for it: that of its sweep, its
    jet, its prediction or its fit, in this order.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if pts.size == 0:
        raise InvalidParameterError("need at least one point")
    low = np.abs(field_values(f, pts)) < FIELD_FLOOR
    live = pts[~low]
    sweeps = _sweeps(kind, f, live, d, cfg)
    jets, jet_errors = _wirtinger_jets(f, live)
    results = [s if isinstance(s, HolomeansError) else e for s, e in zip(sweeps, jet_errors)]
    ok = np.flatnonzero([res is None for res in results])
    predicted, errors = analytic(Jet(jets.base[ok], jets.value[ok], jets.dz[ok], jets.dzbar[ok]))
    series = [_increment_ratios(sweeps[i]) if kind == "pair_increment"
              else (sweeps[i].radii, sweeps[i].values) for i in ok]
    estimates, _ = _extrapolate_rows([r for r, _ in series], [v for _, v in series])
    for i, prediction, error, est in zip(ok.tolist(), predicted.tolist(), errors, estimates):
        if error is None and not isinstance(est, HolomeansError):
            results[i] = row(complex(live[i]), est, prediction)
        else:
            results[i] = error or est
    live_rows = iter(results)
    return tuple(untestable(complex(z)) if is_low else next(live_rows)
                 for z, is_low in zip(pts, low))


_HOLOMORPHY = {
    "vanishes": "holomorphic",
    "converges_nonzero": "not_holomorphic",
    "inconclusive": "inconclusive",
}
_SYSTEM = {"vanishes": True, "converges_nonzero": False, "inconclusive": None}
_SYSTEM_STATUS = {True: "satisfied", False: "violated", None: "inconclusive"}


def holomorphy_verdict(g, points, d, cfg=None):
    """Decide holomorphy of ``g`` at each point from conjugate-mean sweeps.

    The extrapolated limit of the conjugate-transformed mean vanishes exactly
    when the conjugate derivative of g vanishes; the analytic first-order
    prediction

        2 / (1 + lam(G'(|g|))) * G'(|g|) / |g| * dg/d(conj z)

    is computed from a finite-difference jet and reported with its gap to
    the sweep's limit on every testable row; ``consistent`` says whether the
    two agree within ``MATCH_TOL``.  Points where |g(z)| falls below
    ``FIELD_FLOOR`` are marked untestable (the characterization only applies
    away from zeroes of g).  Returns one verdict per point.
    """
    return _raise_first(_holomorphy_rows(g, points, d, cfg))


def _holomorphy_rows(g, points, d, cfg=None):
    """Rows of :func:`holomorphy_verdict`, a failing point's error in its slot."""
    conjugate = young_conjugate(d)

    def analytic(jets):
        mod = _modulus(jets.value)
        conj_slope, errors = _per_point(conjugate.deriv, mod)
        lam, lam_errors = _per_point(lambda s: lambda_of(d, s), conj_slope)
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN where a point failed
            predicted = 2.0 / (1.0 + lam) * (conj_slope / mod) * jets.dzbar
        return predicted, [a or b for a, b in zip(errors, lam_errors)]

    def row(z, est, predicted):
        gap = abs(est.limit - predicted)
        return HolomorphyVerdict(
            point=z,
            verdict=_HOLOMORPHY[est.verdict],
            estimate=est,
            predicted_limit=complex(predicted),
            prediction_gap=float(gap),
            consistent=bool(est.verdict != "inconclusive" and gap <= MATCH_TOL),
        )

    return _verdict_rows("conjugate", g, points, d, cfg, analytic, row, HolomorphyVerdict)


def system_verdict(f, points, d, cfg=None):
    """Compare sweep decisions against the analytic system residual per point.

    The derivative-detecting mean vanishes as r -> 0 exactly when the field
    satisfies the nonlinear Cauchy-Riemann system tied to the density; the
    analytic residual of that system is evaluated on a finite-difference jet
    and both decisions are reported with a consistency flag.  Points where
    |f(z)| falls below ``FIELD_FLOOR`` are marked untestable.  Returns one
    verdict per point.
    """
    return _raise_first(_system_rows(f, points, d, cfg))


def _system_rows(f, points, d, cfg=None):
    """Rows of :func:`system_verdict`, a failing point's error in its slot."""

    def row(z, est, residual):
        analytic_ok = _SYSTEM[str(_decide(abs(residual)))]
        sweep_ok = _SYSTEM[est.verdict]
        return SystemVerdict(
            point=z,
            status=_SYSTEM_STATUS[sweep_ok],
            estimate=est,
            analytic_residual=complex(residual),
            sweep_satisfied=sweep_ok,
            analytic_satisfied=analytic_ok,
            consistent=bool(sweep_ok is not None and sweep_ok == analytic_ok),
        )

    return _verdict_rows("variational", f, points, d, cfg,
                         lambda jets: _cr_residuals(jets, d), row, SystemVerdict)


def amvp_verdict(f, points, d, cfg=None):
    """Asymptotic mean value property of the pair mean at each point.

    Sweeps ``(pair mean value - f(z)) / r`` and extrapolates; the property
    holds exactly when |limit| <= ZERO_TOL, with no inconclusive state (the
    fit quality is reported on the estimate but does not gate the decision).
    The limit is cross-checked against the first-order bracket (the system
    residual of the finite-difference jet), which is valid for densities
    with declared small-argument behaviour.  Points where |f(z)| falls below
    ``FIELD_FLOOR`` are marked untestable.  Returns one verdict per point.
    """
    return _raise_first(_amvp_rows(f, points, d, cfg))


def _amvp_rows(f, points, d, cfg=None):
    """Rows of :func:`amvp_verdict`, a failing point's error in its slot."""
    if not (np.isfinite(d.small_coeff) and d.small_coeff > 0.0
            and np.isfinite(d.small_exponent) and d.small_exponent > 0.0):
        raise InvalidParameterError(
            "amvp verdict needs a density with declared small-argument behaviour"
        )

    def row(z, est, bracket):
        holds = str(_decide(abs(est.limit))) == "vanishes"
        gap = abs(est.limit - bracket)
        return AmvpVerdict(
            point=z,
            status="holds" if holds else "fails",
            estimate=est,
            holds=holds,
            bracket=complex(bracket),
            bracket_gap=float(gap),
            consistent=bool(gap <= MATCH_TOL),
        )

    return _verdict_rows("pair_increment", f, points, d, cfg,
                         lambda jets: _cr_residuals(jets, d), row, AmvpVerdict)
