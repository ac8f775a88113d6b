"""Radius sweeps, limit extrapolation, and asymptotic verdicts.

A sweep computes one of the circle means at a geometric ladder of radii
``r_k = r0 * rho**k``; extrapolation fits the complex linear model
``value ~ limit + slope * r`` by least squares and classifies the limit:

* ``vanishes``           |limit| <= limit_tol and the fit is credible
* ``converges_nonzero``  |limit| >  limit_tol and the fit is credible
* ``inconclusive``       the residual of the fit exceeds its gate

The fit gate is ``fit_tol_coeff * max(max_k |value_k|, limit_tol)``; the
``limit_tol`` floor keeps sweeps whose values are uniformly at noise level
(e.g. exactly holomorphic data) conclusive instead of comparing noise
against a vanishing fraction of itself.

Three verdicts build on sweeps: holomorphy of a field through the
conjugate-transformed mean, membership in the nonlinear Cauchy-Riemann
system through the derivative-detecting mean, and the asymptotic mean value
property through the pair mean.  Each one cross-checks the extrapolated
limit against the analytic first-order prediction computed from a finite
difference jet, and flags disagreement instead of hiding it.

A verdict sweeps all its points together: points where the field falls
below ``field_floor`` are set aside as untestable, and the whole ladder of
the others is one batched circle-mean solve.  A radius that fails for one
point is recorded in that point's sweep alone.
A point left with too few radii, or whose row cannot be computed, keeps its
:class:`HolomeansError` in its slot of the rows; the public verdicts raise
the first of them (in the order given), while the command line interface
writes each as an ``error`` row.  :func:`sweep` is the one-point call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import lambda_of, young_conjugate
from .errors import (
    HolomeansError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSweepError,
)
from .geometry import field_values, wirtinger_jet
from .means import SolverConfig, _ladder_means
from .pdesystem import cr_residual

__all__ = [
    "SweepConfig",
    "ToleranceConfig",
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

    def radii(self):
        if not (0.0 < self.rho < 1.0):
            raise InvalidParameterError(f"rho must lie in (0, 1), got {self.rho}")
        if self.r0 <= 0.0:
            raise InvalidParameterError(f"r0 must be positive, got {self.r0}")
        if self.count < 2:
            raise InvalidParameterError(f"count must be >= 2, got {self.count}")
        return self.r0 * self.rho ** np.arange(self.count)


@dataclass(frozen=True)
class ToleranceConfig:
    """Decision thresholds for extrapolated verdicts."""

    limit_tol: float = 1e-4
    fit_tol_coeff: float = 1e-3
    residual_tol: float = 1e-4
    match_tol: float = 1e-3
    amvp_tol: float = 1e-4
    field_floor: float = 1e-8


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
    if cfg.min_successes < 1:
        raise InvalidParameterError(
            f"min_successes must be >= 1, got {cfg.min_successes}"
        )
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


def _raise_first(results):
    """Return ``results`` unchanged, unless one is an error: raise the first."""
    for res in results:
        if isinstance(res, HolomeansError):
            raise res
    return results


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


def extrapolate(radii, values=None, tol=None):
    """Least-squares linear extrapolation of sweep values to radius zero.

    Accepts a :class:`RadiusSweep` in place of the two arrays.  Returns a
    :class:`LimitEstimate` whose verdict follows the module rules.
    """
    if isinstance(radii, RadiusSweep):
        if values is not None and not isinstance(values, ToleranceConfig):
            raise InvalidParameterError(
                "pass either (sweep, tol) or (radii, values, tol)"
            )
        tol = values if isinstance(values, ToleranceConfig) else tol
        values = np.asarray(radii.values, dtype=complex)
        radii = np.asarray(radii.radii, dtype=float)
    tol = tol or ToleranceConfig()
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=complex)
    if radii.ndim != 1 or radii.shape != values.shape:
        raise InvalidSweepError("radii and values must be matching 1-d arrays")
    if radii.size < 2 or np.unique(radii).size < 2:
        raise InvalidSweepError("need at least two distinct radii to extrapolate")

    design = np.stack([np.ones_like(radii), radii], axis=1)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    fitted = design @ coef
    fit_residual = float(np.sqrt(np.mean(np.abs(values - fitted) ** 2)))
    scale = max(float(np.max(np.abs(values))), tol.limit_tol)
    fit_tol = tol.fit_tol_coeff * scale

    limit = complex(coef[0])
    if fit_residual <= fit_tol:
        verdict = "vanishes" if abs(limit) <= tol.limit_tol else "converges_nonzero"
    else:
        verdict = "inconclusive"
    return LimitEstimate(
        limit=limit,
        slope=complex(coef[1]),
        fit_residual=fit_residual,
        verdict=verdict,
    )


def _increment_ratios(s):
    """Radii and increments divided by the radius of a ``pair_increment`` sweep."""
    radii = np.asarray(s.radii, dtype=float)
    return radii, np.asarray(s.values, dtype=complex) / radii


def _verdict_rows(kind, f, points, d, cfg, tol, row, untestable):
    """One verdict row per point, from one batched sweep of the testable points.

    Points where |f(z)| falls below ``tol.field_floor`` get
    ``untestable(z)``; the rest are swept together and get ``row(z, sweep)``.
    A point whose sweep or row fails gets its :class:`HolomeansError` instead.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if pts.size == 0:
        raise InvalidParameterError("need at least one point")
    low = np.abs(field_values(f, pts)) < tol.field_floor
    swept = iter(_sweeps(kind, f, pts[~low], d, cfg))

    def one(z, is_low):
        if is_low:
            return untestable(z)
        s = next(swept)
        if isinstance(s, HolomeansError):
            return s
        try:
            return row(z, s)
        except HolomeansError as exc:
            return exc

    return tuple(one(complex(z), is_low) for z, is_low in zip(pts, low))


_HOLOMORPHY = {
    "vanishes": "holomorphic",
    "converges_nonzero": "not_holomorphic",
    "inconclusive": "inconclusive",
}
_SYSTEM = {"vanishes": True, "converges_nonzero": False, "inconclusive": None}
_SYSTEM_STATUS = {True: "satisfied", False: "violated", None: "inconclusive"}


def holomorphy_verdict(g, points, d, cfg=None, tol=None):
    """Decide holomorphy of ``g`` at each point from conjugate-mean sweeps.

    The extrapolated limit of the conjugate-transformed mean vanishes exactly
    when the conjugate derivative of g vanishes; the analytic first-order
    prediction

        2 / (1 + lam(G'(|g|))) * G'(|g|) / |g| * dg/d(conj z)

    is computed from a finite-difference jet and reported with its gap to
    the sweep's limit on every testable row; ``consistent`` says whether the
    two agree within ``match_tol``.  Points where |g(z)| falls below the
    field floor are marked untestable (the characterization only applies
    away from zeroes of g).  Returns one verdict per point.
    """
    return _raise_first(_holomorphy_rows(g, points, d, cfg, tol))


def _holomorphy_rows(g, points, d, cfg=None, tol=None):
    """Rows of :func:`holomorphy_verdict`, a failing point's error in its slot."""
    tol = tol or ToleranceConfig()
    conjugate = young_conjugate(d)

    def row(z, s):
        jet = wirtinger_jet(g, z)
        mod = abs(jet.value)
        conj_slope = float(conjugate.deriv(mod))
        lam = float(lambda_of(d, conj_slope))
        predicted = 2.0 / (1.0 + lam) * (conj_slope / mod) * jet.dzbar
        est = extrapolate(s, tol)
        gap = abs(est.limit - predicted)
        return HolomorphyVerdict(
            point=z,
            verdict=_HOLOMORPHY[est.verdict],
            estimate=est,
            predicted_limit=complex(predicted),
            prediction_gap=float(gap),
            consistent=bool(est.verdict != "inconclusive" and gap <= tol.match_tol),
        )

    return _verdict_rows("conjugate", g, points, d, cfg, tol, row, HolomorphyVerdict)


def system_verdict(f, points, d, cfg=None, tol=None):
    """Compare sweep decisions against the analytic system residual per point.

    The derivative-detecting mean vanishes as r -> 0 exactly when the field
    satisfies the nonlinear Cauchy-Riemann system tied to the density; the
    analytic residual of that system is evaluated on a finite-difference jet
    and both decisions are reported with a consistency flag.  Points where
    |f(z)| falls below the field floor are marked untestable.  Returns one
    verdict per point.
    """
    return _raise_first(_system_rows(f, points, d, cfg, tol))


def _system_rows(f, points, d, cfg=None, tol=None):
    """Rows of :func:`system_verdict`, a failing point's error in its slot."""
    tol = tol or ToleranceConfig()

    def row(z, s):
        residual = cr_residual(wirtinger_jet(f, z), d)
        analytic_ok = abs(residual) <= tol.residual_tol
        est = extrapolate(s, tol)
        sweep_ok = _SYSTEM[est.verdict]
        return SystemVerdict(
            point=z,
            status=_SYSTEM_STATUS[sweep_ok],
            estimate=est,
            analytic_residual=complex(residual),
            sweep_satisfied=sweep_ok,
            analytic_satisfied=bool(analytic_ok),
            consistent=bool(sweep_ok is not None and sweep_ok == analytic_ok),
        )

    return _verdict_rows("variational", f, points, d, cfg, tol, row, SystemVerdict)


def amvp_verdict(f, points, d, cfg=None, tol=None):
    """Asymptotic mean value property of the pair mean at each point.

    Sweeps ``(pair mean value - f(z)) / r`` and extrapolates; the property
    holds exactly when |limit| <= amvp_tol, with no inconclusive state (the
    fit quality is reported on the estimate but does not gate the decision).
    The limit is cross-checked against the first-order bracket (the system
    residual of the finite-difference jet), which is valid for densities
    with declared small-argument behaviour.  Points where |f(z)| falls below
    the field floor are marked untestable.  Returns one verdict per point.
    """
    return _raise_first(_amvp_rows(f, points, d, cfg, tol))


def _amvp_rows(f, points, d, cfg=None, tol=None):
    """Rows of :func:`amvp_verdict`, a failing point's error in its slot."""
    tol = tol or ToleranceConfig()
    if not (np.isfinite(d.small_coeff) and d.small_coeff > 0.0
            and np.isfinite(d.small_exponent) and d.small_exponent > 0.0):
        raise InvalidParameterError(
            "amvp verdict needs a density with declared small-argument behaviour"
        )

    def row(z, s):
        bracket = cr_residual(wirtinger_jet(f, z), d)
        est = extrapolate(*_increment_ratios(s), tol)
        holds = abs(est.limit) <= tol.amvp_tol
        gap = abs(est.limit - bracket)
        return AmvpVerdict(
            point=z,
            status="holds" if holds else "fails",
            estimate=est,
            holds=bool(holds),
            bracket=complex(bracket),
            bracket_gap=float(gap),
            consistent=bool(gap <= tol.match_tol),
        )

    return _verdict_rows("pair_increment", f, points, d, cfg, tol, row, AmvpVerdict)
