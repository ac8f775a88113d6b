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

Every verdict, contact included, fits through one sweep-to-limit step,
:func:`_limits`: the whole ladder of all its points is one batched
circle-mean solve, read as (points, radii) arrays with no per-point
:class:`RadiusSweep` (a radius that fails for one point is masked out of
that point's row alone), and one closed-form least-squares pass over those
arrays extrapolates every ladder, whatever its usable radii.  Points where
the field falls below ``FIELD_FLOOR`` are set aside as untestable first
(:func:`_live_jets`).  The rows are assembled in array passes over the
points: one field call samples every jet, and its centres are the field at
the points (for the floor test and the pair increment's centre), so a
verdict samples its field in two calls, the jets and the ladder.  The
analytic predictions are array expressions, with the density's conjugate
derived once per density object, and Python only builds the result rows.
A point left with too few radii, or whose row cannot be computed, keeps its
:class:`HolomeansError` in its slot of the rows; the public verdicts raise
the first of them (in the order given), while the command line interface
writes each as an ``error`` row.  :func:`sweep` and :func:`extrapolate` are
the one-point calls.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import geometry
from .density import _per_point, lambda_of, young_conjugate
from .errors import (
    HolomeansError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSweepError,
    _raise_first,
)
from .geometry import (
    Jet,
    _modulus,
    _refused_point,
    _wirtinger_jets,
    field_values,
    nonfinite_error,
)
from .means import _STATUS_CONVERGED, _ladder_means
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
# sweep's limit and its analytic prediction for a ``consistent`` row.  A sweep
# needs values at MIN_SUCCESSES radii at least, else it raises; a SweepConfig
# with fewer radii is refused when built.
ZERO_TOL = 1e-4
MIN_SUCCESSES = 4
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


@dataclass(frozen=True)
class SweepConfig:
    """Geometric radius ladder of a sweep; ``seed`` shuffles the sup mean.

    Every circle has ``geometry.DEFAULT_CIRCLE_NODES`` nodes.  ``count`` is
    at least ``MIN_SUCCESSES``, the radii a sweep needs.
    """

    r0: float = 0.1
    rho: float = 0.5
    count: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.r0 < np.inf:
            raise InvalidParameterError(f"r0 must be positive and finite, got {self.r0}")
        if not 0.0 < self.rho < 1.0:
            raise InvalidParameterError(f"rho must lie in (0, 1), got {self.rho}")
        if self.count < MIN_SUCCESSES:
            raise InvalidParameterError(f"count must be >= {MIN_SUCCESSES}, got {self.count}")

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


def _sweeps(kind, f, points, d, cfg, center=None):
    """Sweep every point at once: one circle-mean solve over the whole ladder.

    A ``pair_increment`` sweep subtracts f at the points: ``center``, when
    the caller has it, else sampled here at points that must be finite.  A
    non-finite point is refused by the ladder.  Returns ``(radii, cols, values,
    ok, errors)``: the ladder, the engine's columns
    (:func:`~holomeans.means._ladder_means`), the values and whether each is
    usable as (points, radii) arrays, and per point None or the error
    :func:`sweep` raises for it alone.  An error that concerns every point
    fails every radius for all of them.
    """
    pts = np.asarray(points, dtype=complex)
    if kind not in SWEEP_KINDS:
        raise InvalidParameterError(
            f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}"
        )
    cfg = cfg or SweepConfig()
    radii = cfg.radii()
    shape = (pts.size, radii.size)
    if pts.size == 0:
        return radii, {}, np.zeros(shape, dtype=complex), np.zeros(shape, dtype=bool), []
    if kind == "pair_increment":
        # A (points, 1) array, shaped like the circles the means sample.
        center = field_values(f, pts[:, None]) if center is None else center[:, None]
    try:
        cols = _ladder_means(_SWEEP_MEANS[kind], f, pts, radii, d,
                             geometry.DEFAULT_CIRCLE_NODES, cfg.seed)
        values = cols["value"].T
        ok = cols["status"].T == _STATUS_CONVERGED
        failed = cols["errors"].T
    except HolomeansError as exc:
        cols = {}
        values = np.full(shape, complex(np.nan, np.nan))
        ok = np.zeros(shape, dtype=bool)
        failed = np.full(shape, exc, dtype=object)
    errors = [None] * pts.size
    for i in np.flatnonzero(~np.isfinite(pts)):
        errors[i] = failed[i, 0]  # the error that refuses the point, at every radius
    if kind == "pair_increment":
        values = values - center
        for i in np.flatnonzero(~np.isfinite(center[:, 0])):
            errors[i] = errors[i] or nonfinite_error(pts[i:i + 1], center[i])
    for i in np.flatnonzero(np.sum(ok, axis=1) < MIN_SUCCESSES):
        errors[i] = errors[i] or InsufficientDataError(
            f"only {np.sum(ok[i])} of {radii.size} radii produced values; need at "
            f"least {MIN_SUCCESSES} (failures: {_failures(radii, failed[i], ok[i])})"
        )
    return radii, cols, values, ok, errors


def _failures(radii, errors, ok):
    """(radius, reason) of every radius of one point without a usable value."""
    return [(float(r), "solver reported failure" if e is None else f"{type(e).__name__}: {e}")
            for r, e, good in zip(radii, errors, ok) if not good]


def sweep(kind, f, z, d, cfg=None):
    """Run one mean at every radius of the ladder.

    ``kind`` selects the mean: ``variational`` (derivative-detecting mean),
    ``conjugate`` (conjugate-transformed mean), ``pair_increment`` (pair mean
    value minus the field value at the center) or ``infinity`` (sup mean).
    Radii whose solve fails, or raises a :class:`HolomeansError`, are
    recorded and skipped; fewer than ``MIN_SUCCESSES`` usable radii raise
    :class:`InsufficientDataError`, a ``pair_increment`` sweep at a point
    where the field is not finite raises :class:`NonFiniteSampleError`, and a
    non-finite point raises :class:`InvalidParameterError`.
    Other exceptions propagate.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise _refused_point(z)
    radii, cols, values, ok, errors = _sweeps(kind, f, [z], d, cfg)
    _raise_first(errors)
    (good,), (failed,) = ok, cols["errors"].T
    if kind == "infinity":
        extras = [{"support_count": int(n)} for n in cols["support_count"][good, 0]]
    else:
        extras = [{"foc_residual": float(foc), "iterations": int(it)} for foc, it in
                  zip(cols["foc_residual"][good, 0], cols["iterations"][good, 0])]
    return RadiusSweep(kind, z, tuple(radii[good].tolist()),
                       tuple(values[0, good].tolist()), ("converged",) * int(np.sum(good)),
                       tuple(_failures(radii, failed, good)), tuple(extras))


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
    if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
        raise InvalidSweepError("radii and values must be finite")
    cols = _extrapolate_rows(radii, values[None], np.ones((1, radii.size), bool))
    _raise_first(cols["errors"])
    return _estimates(cols, [0])[0]


def _row_sums(a):
    """Sums along the last axis taken left to right: added zeros keep the bits."""
    return np.cumsum(a, axis=-1)[..., -1] if a.shape[-1] else a.sum(axis=-1)


def _rms(residual, count):
    """Root mean square of each row of ``residual`` (last axis) over ``count`` entries.

    The squared moduli sum by :func:`_row_sums`.  A row whose sum overflows is
    summed again scaled by the power of two of its largest modulus, which is
    exact, and scaled back; every other row keeps the plain sum's bits.
    """
    modulus = np.abs(residual)
    with np.errstate(over="ignore"):
        rms = np.sqrt(_row_sums(modulus**2) / count)
    huge = np.isinf(rms)
    if np.any(huge):
        part = modulus[huge]
        e = np.frexp(np.max(part, axis=-1))[1]
        total = _row_sums(np.ldexp(part, -e[:, None]) ** 2)
        rms[huge] = np.ldexp(np.sqrt(total / np.broadcast_to(count, rms.shape)[huge]), e)
    return rms


def _extrapolate_rows(radii, values, ok):
    """:func:`extrapolate` of every row of the (rows, radii) ``values`` over its ``ok`` radii.

    One pass of the centred closed form ``slope = sum(dr (v - mean v)) / sum(dr**2)``,
    ``dr = r - mean r``, ``limit = mean v - slope mean r``; unusable radii add
    zeros to the :func:`_row_sums`, so a row has its compact fit's bits in any
    batch.  Columns over the rows: ``limit``, ``slope``, ``fit_residual``,
    ``verdict``, the (rows, radii) ``residual`` (0 at unusable radii), the usable
    ``count``, and ``errors``: None or a row's :class:`InvalidSweepError`.
    """
    count = np.sum(ok, axis=-1)
    v = np.where(ok, values, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN on the rows that fail
        r_mean = _row_sums(np.where(ok, radii, 0.0)) / count
        v_mean = _row_sums(v) / count
        dr = np.where(ok, radii - r_mean[:, None], 0.0)
        spread = _row_sums(dr**2)
        slope = _row_sums(dr * (v - v_mean[:, None])) / spread
        limit = v_mean - slope * r_mean
        residual = np.where(ok, v - (limit[:, None] + slope[:, None] * radii), 0.0)
        fit_residual = _rms(residual, count)
    scale = np.maximum(np.max(np.abs(v), axis=-1, initial=0.0), ZERO_TOL)
    verdict = _decide(_modulus(limit), fit_residual <= FIT_TOL_COEFF * scale)
    error = InvalidSweepError("need at least two distinct radii to extrapolate")
    return dict(limit=limit, slope=slope, fit_residual=fit_residual, verdict=verdict,
                residual=residual, count=count,
                errors=[None if s > 0.0 else error for s in spread.tolist()])


def _estimates(cols, rows):
    """The :class:`LimitEstimate` of each of the ``rows`` of the fit columns ``cols``."""
    fields = (cols[name][rows].tolist() for name in ("limit", "slope", "fit_residual", "verdict"))
    return [LimitEstimate(*row) for row in zip(*fields)]


def _live_jets(f, points):
    """The flattened ``points`` (none refused), the mask of those where
    |f| < ``FIELD_FLOOR``, and the jets of the others with their errors."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if pts.size == 0:
        raise InvalidParameterError("need at least one point")
    # The jets' one field call gives f at the points too, as their values.
    jets, errors = _wirtinger_jets(f, pts)
    low = np.abs(jets.value) < FIELD_FLOOR
    if low.any():
        keep = ~low
        jets = Jet(jets.base[keep], jets.value[keep], jets.dz[keep], jets.dzbar[keep])
        errors = [error for error, is_low in zip(errors, low.tolist()) if not is_low]
    return pts, low, jets, errors


def _limits(kind, f, points, d, cfg, center=None):
    """The sweep-to-limit step of every verdict: :func:`_extrapolate_rows`
    columns of all the points' sweeps (increment ratios for
    ``pair_increment``, with f at the points ``center`` if given), and the
    per-point sweep errors."""
    radii, _, values, ok, errors = _sweeps(kind, f, points, d, cfg, center)
    if kind == "pair_increment":
        values = values / radii
    return _extrapolate_rows(radii, values, ok), errors


def _verdict_rows(kind, f, points, d, cfg, analytic, rows, untestable):
    """One verdict row per point, assembled in array passes over the points.

    Points where |f(z)| falls below ``FIELD_FLOOR`` get ``untestable(z)``;
    the rest get their jets and limits from :func:`_live_jets` and
    :func:`_limits`.  ``analytic(jets)`` returns the first-order prediction
    as an array over the points given, with a list of per-point errors.  A
    point gets the first :class:`HolomeansError` met for it: that of its
    sweep, its jet, its prediction or its fit, in this order.  The points
    with none get their rows from one ``rows(zs, estimates, limits,
    predictions)`` call over all of them, with ``zs`` a list of complex,
    ``estimates`` a list of :class:`LimitEstimate` and ``limits`` and
    ``predictions`` complex arrays.
    """
    pts, low, jets, jet_errors = _live_jets(f, points)
    cols, sweep_errors = _limits(kind, f, jets.base, d, cfg, jets.value)
    results = [a or b for a, b in zip(sweep_errors, jet_errors)]
    ok_pts = np.flatnonzero([res is None for res in results])
    predicted, errors = analytic(Jet(jets.base[ok_pts], jets.value[ok_pts], jets.dz[ok_pts],
                                     jets.dzbar[ok_pts]))
    errors = [a or cols["errors"][i] for a, i in zip(errors, ok_pts.tolist())]
    passed = [j for j, error in enumerate(errors) if error is None]
    for i, error in zip(ok_pts.tolist(), errors):
        results[i] = error
    done = ok_pts[passed]
    made = rows(jets.base[done].tolist(), _estimates(cols, done), cols["limit"][done],
                predicted[passed])
    for i, result in zip(done.tolist(), made):
        results[i] = result
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

    def rows(zs, estimates, limits, predictions):
        return list(map(row, zs, estimates, predictions.tolist()))

    return _verdict_rows("conjugate", g, points, d, cfg, analytic, rows, HolomorphyVerdict)


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

    def row(z, est, residual, analytic):
        analytic_ok = _SYSTEM[analytic]
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

    def rows(zs, estimates, limits, residuals):
        analytic = _decide(np.abs(residuals)).tolist()
        return list(map(row, zs, estimates, residuals.tolist(), analytic))

    return _verdict_rows("variational", f, points, d, cfg,
                         lambda jets: _cr_residuals(jets, d), rows, SystemVerdict)


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

    def row(z, est, bracket, holds):
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

    def rows(zs, estimates, limits, brackets):
        holding = (_decide(np.abs(limits)) == "vanishes").tolist()
        return list(map(row, zs, estimates, brackets.tolist(), holding))

    return _verdict_rows("pair_increment", f, points, d, cfg,
                         lambda jets: _cr_residuals(jets, d), rows, AmvpVerdict)
