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
from .geometry import wirtinger_jet
from .means import (
    SolverConfig,
    conjugate_transformed_mean,
    infinity_mean,
    pair_mean,
    variational_circle_mean,
)
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

SWEEP_KINDS = ("variational", "conjugate", "pair_increment", "infinity")


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
    produce a usable value; ``extras`` carries per-radius diagnostics such as
    the sup-mean support count.
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


@dataclass(frozen=True)
class HolomorphyVerdict:
    point: complex
    verdict: str  # holomorphic | not_holomorphic | inconclusive | untestable
    estimate: object  # LimitEstimate, or None when untestable
    predicted_limit: complex
    prediction_gap: float
    consistent: bool


@dataclass(frozen=True)
class SystemVerdict:
    point: complex
    status: str  # satisfied | violated | inconclusive | untestable
    estimate: object  # LimitEstimate, or None when untestable
    analytic_residual: complex
    sweep_satisfied: object  # True | False | None
    analytic_satisfied: object  # bool, or None when untestable
    consistent: bool


@dataclass(frozen=True)
class AmvpVerdict:
    point: complex
    status: str  # holds | fails | untestable
    estimate: object  # LimitEstimate, or None when untestable
    holds: object  # True | False | None when untestable
    bracket: complex
    bracket_gap: float
    consistent: bool


def _field_value(f, z):
    return complex(np.asarray(f(np.asarray([z], dtype=complex)))[0])


def sweep(kind, f, z, d, cfg=None):
    """Run one mean at every radius of the ladder.

    ``kind`` selects the mean: ``variational`` (derivative-detecting mean),
    ``conjugate`` (conjugate-transformed mean), ``pair_increment`` (pair mean
    value minus the field value at the center) or ``infinity`` (sup mean).
    Radii whose solve fails, or raises a :class:`HolomeansError`, are
    recorded and skipped; fewer than ``cfg.min_successes`` usable radii
    raise :class:`InsufficientDataError`.  Other exceptions propagate.
    """
    if kind not in SWEEP_KINDS:
        raise InvalidParameterError(
            f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}"
        )
    cfg = cfg or SweepConfig()
    if cfg.min_successes < 1:
        raise InvalidParameterError(
            f"min_successes must be >= 1, got {cfg.min_successes}"
        )
    z = complex(z)
    radii_all = cfg.radii()
    center_value = None
    if kind == "pair_increment":
        center_value = _field_value(f, z)

    radii, values, statuses, failures, extras = [], [], [], [], []
    for r in radii_all:
        try:
            if kind == "pair_increment":
                res = pair_mean(f, z, r, d, cfg.node_count, cfg.solver)
                worst = max(res.center.foc_residual, res.slope.foc_residual)
                value, extra = res.value - center_value, {"foc_residual": worst}
            elif kind == "infinity":
                res = infinity_mean(f, z, r, cfg.node_count, cfg.seed)
                value, extra = res.minimizer, {"support_count": res.support_count}
            else:
                mean = (
                    variational_circle_mean
                    if kind == "variational"
                    else conjugate_transformed_mean
                )
                res = mean(f, z, r, d, cfg.node_count, cfg.solver)
                value, extra = res.minimizer, {"foc_residual": res.foc_residual}
            status = res.status
        except HolomeansError as exc:
            failures.append((float(r), f"{type(exc).__name__}: {exc}"))
            continue
        if status == "failed":
            failures.append((float(r), "solver reported failure"))
            continue
        radii.append(float(r))
        values.append(complex(value))
        statuses.append(status)
        extras.append(extra)

    if len(values) < cfg.min_successes:
        raise InsufficientDataError(
            f"only {len(values)} of {len(radii_all)} radii produced values; "
            f"need at least {cfg.min_successes} "
            f"(failures: {failures})"
        )
    return RadiusSweep(
        kind=kind,
        point=z,
        radii=tuple(radii),
        values=tuple(values),
        statuses=tuple(statuses),
        failures=tuple(failures),
        extras=tuple(extras),
    )


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


def _point_list(points):
    arr = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if arr.size == 0:
        raise InvalidParameterError("need at least one point")
    return [complex(p) for p in arr]


def holomorphy_verdict(g, points, d, cfg=None, tol=None):
    """Decide holomorphy of ``g`` at each point from conjugate-mean sweeps.

    The extrapolated limit of the conjugate-transformed mean vanishes exactly
    when the conjugate derivative of g vanishes; the analytic first-order
    prediction

        2 / (1 + lam(G'(|g|))) * G'(|g|) / |g| * dg/d(conj z)

    is computed from a finite-difference jet and compared against the sweep.
    Points where |g(z)| falls below the field floor are marked untestable
    (the characterization only applies away from zeroes of g).  Returns one
    verdict per point.
    """
    tol = tol or ToleranceConfig()
    nan = float("nan")
    rows = []
    for z in _point_list(points):
        if abs(_field_value(g, z)) < tol.field_floor:
            rows.append(HolomorphyVerdict(
                point=z,
                verdict="untestable",
                estimate=None,
                predicted_limit=complex(nan, nan),
                prediction_gap=nan,
                consistent=False,
            ))
            continue
        jet = wirtinger_jet(g, z)
        mod = abs(jet.value)
        conj_slope = float(young_conjugate(d).deriv(mod))
        lam = float(lambda_of(d, conj_slope))
        predicted = 2.0 / (1.0 + lam) * (conj_slope / mod) * jet.dzbar

        s = sweep("conjugate", g, z, d, cfg)
        est = extrapolate(s, tol)
        mapping = {
            "vanishes": "holomorphic",
            "converges_nonzero": "not_holomorphic",
            "inconclusive": "inconclusive",
        }
        gap = abs(est.limit - predicted)
        rows.append(HolomorphyVerdict(
            point=z,
            verdict=mapping[est.verdict],
            estimate=est,
            predicted_limit=complex(predicted),
            prediction_gap=float(gap),
            consistent=bool(est.verdict != "inconclusive" and gap <= tol.match_tol),
        ))
    return tuple(rows)


def system_verdict(f, points, d, cfg=None, tol=None):
    """Compare sweep decisions against the analytic system residual per point.

    The derivative-detecting mean vanishes as r -> 0 exactly when the field
    satisfies the nonlinear Cauchy-Riemann system tied to the density; the
    analytic residual of that system is evaluated on a finite-difference jet
    and both decisions are reported with a consistency flag.  Points where
    |f(z)| falls below the field floor are marked untestable.  Returns one
    verdict per point.
    """
    tol = tol or ToleranceConfig()
    nan = float("nan")
    rows = []
    for z in _point_list(points):
        if abs(_field_value(f, z)) < tol.field_floor:
            rows.append(SystemVerdict(
                point=z,
                status="untestable",
                estimate=None,
                analytic_residual=complex(nan, nan),
                sweep_satisfied=None,
                analytic_satisfied=None,
                consistent=False,
            ))
            continue
        jet = wirtinger_jet(f, z)
        residual = cr_residual(jet, d)
        analytic_ok = abs(residual) <= tol.residual_tol

        s = sweep("variational", f, z, d, cfg)
        est = extrapolate(s, tol)
        sweep_ok = {
            "vanishes": True,
            "converges_nonzero": False,
            "inconclusive": None,
        }[est.verdict]
        status = {
            True: "satisfied",
            False: "violated",
            None: "inconclusive",
        }[sweep_ok]
        rows.append(SystemVerdict(
            point=z,
            status=status,
            estimate=est,
            analytic_residual=complex(residual),
            sweep_satisfied=sweep_ok,
            analytic_satisfied=bool(analytic_ok),
            consistent=bool(sweep_ok is not None and sweep_ok == analytic_ok),
        ))
    return tuple(rows)


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
    tol = tol or ToleranceConfig()
    if not (np.isfinite(d.small_coeff) and d.small_coeff > 0.0
            and np.isfinite(d.small_exponent) and d.small_exponent > 0.0):
        raise InvalidParameterError(
            "amvp verdict needs a density with declared small-argument behaviour"
        )
    nan = float("nan")
    rows = []
    for z in _point_list(points):
        if abs(_field_value(f, z)) < tol.field_floor:
            rows.append(AmvpVerdict(
                point=z,
                status="untestable",
                estimate=None,
                holds=None,
                bracket=complex(nan, nan),
                bracket_gap=nan,
                consistent=False,
            ))
            continue
        jet = wirtinger_jet(f, z)
        bracket = cr_residual(jet, d)

        s = sweep("pair_increment", f, z, d, cfg)
        radii = np.asarray(s.radii, dtype=float)
        ratios = np.asarray(s.values, dtype=complex) / radii
        est = extrapolate(radii, ratios, tol)
        holds = abs(est.limit) <= tol.amvp_tol
        gap = abs(est.limit - bracket)
        rows.append(AmvpVerdict(
            point=z,
            status="holds" if holds else "fails",
            estimate=est,
            holds=bool(holds),
            bracket=complex(bracket),
            bracket_gap=float(gap),
            consistent=bool(gap <= tol.match_tol),
        ))
    return tuple(rows)
