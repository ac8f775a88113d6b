"""Variational means of complex fields over circles.

The central problem solved here: given samples of a field f on the circle of
radius r at z, a convex radial density F and a model weight m(zeta), find the
complex coefficient c minimizing the mean over the circle nodes zeta_j of

    F(|f(zeta_j) - c * m(zeta_j)|).

Two model weights cover every mean in the package: ``m = conj(zeta - z)``
gives the derivative-detecting circle mean, ``m = 1`` the center component of
the pair mean.  The minimizer is unique (strict convexity plus growth), and
the solver is a damped Newton iteration in the two real coordinates of c
using the exact complex Hessian of H(w) = F(|w|), with an Armijo line search.
Where an iterate puts a residual exactly at zero, H stops being twice
differentiable; the Hessian then clamps that residual's modulus at
``RESIDUAL_FLOOR``, which keeps the Newton step a descent direction.  A
density whose F' is an exact power law, such as every power density, takes
the one-power kernel: a Newton iteration evaluates one power of the squared
residual moduli, from which F, F' and F'' all follow.

The sup-norm mean is different in kind: it reduces to a smallest enclosing
circle problem and is solved exactly by a randomized incremental algorithm.

Every mean is computed by one engine, which takes all points of a whole ladder
of radii at once: one field call samples every circle and one Newton solve per
model fits every (radius, point) row, so a sweep is one solve, and two for the
pair mean: its center on the model 1, then its slope on ``conj(zeta - z)``
(:func:`_newton_fits`).  The engine returns (radii, points) columns of values,
status codes, first-order residuals and iterations, and a row whose circle
cannot be solved gets its own error in its slot while the other rows go on.
One boolean mask marks the failing rows: an error object is made only for a
row that fails, and where no row fails the fit's outputs are the columns as
they are, with no compaction or scatter.  Result objects are made only at the
public edge: :func:`circle_means` is the engine's one-radius call, and the
one-point functions are one-row calls.  Every sum over a row's nodes is a mean
along that row alone, so a row's result has the same bits whatever batch it is
solved in.  The DPP's sweep fits its pair means by the engine's
:func:`_newton_fits`, from the same :func:`_newton_starts`.

The fit leaves out work that cannot change a bit on two paths its input
selects (:func:`fit_model_coefficient`): the unit path, for the model 1
shared by all rows, skips the exact products by the model, and the
fault-free path, for an evaluation with no residual below
``RESIDUAL_FLOOR``, skips the per-row floor tests.  A row's bits do not
depend on which path runs.

What depends on the density alone is derived once per density object: its
power law (:func:`~holomeans.density._power_law`), which picks the fit's
per-node terms, and its Young conjugate, which the conjugate mean's
transform reads.  The unit circle's nodes are made once per node count.
"""

from __future__ import annotations

import random
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .density import _power_law, young_conjugate
from .errors import (
    InvalidParameterError,
    NonFiniteSampleError,
    ZeroFieldError,
    _raise_first,
)
from .geometry import (
    DEFAULT_CIRCLE_NODES,
    _refused_point,
    _unit_nodes,
    circle_rule,
    field_values,
    nonfinite_error,
)
from .pdesystem import FIELD_FLOOR

__all__ = [
    "MeanResult",
    "PairMeanResult",
    "InfinityMeanResult",
    "AffineIdentityResult",
    "variational_circle_mean",
    "center_circle_mean",
    "pair_mean",
    "conjugate_transformed_mean",
    "infinity_mean",
    "affine_mean_identity",
    "circle_means",
    "fit_model_coefficient",
]

MEAN_KINDS = ("variational", "center", "conjugate", "pair", "infinity")

# Transformed-field floor for the conjugate mean.
TRANSFORM_FLOOR = 1e-12

# Newton solver constants.  A row converges when its first-order residual is
# at most FOC_TOL_COEFF * (1 + mean of F'(|f|) on the circle) and its pending
# step at most STEP_TOL * (1 + |c|): above growth exponent 2 the density
# degenerates at small residuals, a small gradient alone does not bound the
# parameter error, and the step length is the sound certificate.  A pointwise
# residual of modulus below RESIDUAL_FLOOR counts as an exact zero: the Hessian
# clamps residual moduli at this floor, and a row whose residuals all lie below
# it is an exact fit.  A row gets MAX_NEWTON_ITERATIONS steps.  A line search
# tries at most MAX_BACKTRACKS steps t, the full step first (so at least one);
# it accepts t when the objective drops by ARMIJO_SLOPE * t * slope and
# otherwise shrinks t by BACKTRACK_FACTOR.
FOC_TOL_COEFF = 1e-10
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
RESIDUAL_FLOOR = 1e-12
MAX_NEWTON_ITERATIONS = 60
MAX_BACKTRACKS = 60
STEP_TOL = 1e-11
# Squared moduli overflow from about 1.3e154, so a row of a fit whose largest
# modulus exceeds HUGE_MODULUS fails unevaluated, unless the density is a power
# law: such a row is fitted at unit scale (see _unit_scale_from).
HUGE_MODULUS = 2.0**500
# The constants above are sized for rows of modulus about 1: the step test
# resolves a coefficient to STEP_TOL (1 + |c|), which is absolute below |c| = 1.
# A power-law row whose largest modulus is below TINY_MODULUS, where it would
# be resolved to no better than STEP_TOL / TINY_MODULUS (about 1e-5) of its
# scale, is fitted at unit scale (see _unit_scale_below).
TINY_MODULUS = 2.0**-20
# The line search's allowance for float noise in the objective, per unit of
# 1 + |objective|.
_FLAT_ULPS = 16.0 * np.finfo(float).eps

_STATUS_ACTIVE = 0
_STATUS_CONVERGED = 1
_STATUS_FAILED = 3
_STATUS_NAMES = {
    _STATUS_CONVERGED: "converged",
    _STATUS_FAILED: "failed",
}
# What an engine column holds where a row has an error; NaN for the others.
_FILL = {"iterations": 0, "status": _STATUS_FAILED, "support_count": 0}


@dataclass(frozen=True)
class MeanResult:
    """Outcome of one variational mean solve.

    ``foc_residual`` is the modulus of the first-order condition averaged
    over the circle nodes and scaled by the model modulus, so it is
    comparable with F' values.  ``status`` is ``converged`` or ``failed``;
    a failed result still carries the best iterate.
    """

    minimizer: complex
    objective: float
    foc_residual: float
    iterations: int
    status: str


@dataclass(frozen=True)
class PairMeanResult:
    """Center/derivative mean: value = center.minimizer + r * slope.minimizer."""

    center: MeanResult
    slope: MeanResult
    radius: float
    value: complex

    @property
    def status(self):
        """``failed`` when either solve failed, else ``converged``."""
        failed = "failed" in (self.center.status, self.slope.status)
        return "failed" if failed else "converged"


@dataclass(frozen=True)
class InfinityMeanResult:
    """Sup-norm mean: objective is the minimized max modulus.

    ``support_count`` certifies the enclosing-circle solution: at least two
    samples must attain the optimal value up to 1e-9.
    """

    minimizer: complex
    objective: float
    support_count: int
    status: str


@dataclass(frozen=True)
class AffineIdentityResult:
    """Coefficients of the implicit identity satisfied by the mean of an affine field.

    For f(zeta) = value + dz (zeta - z) + dzbar conj(zeta - z) and its mean c
    at radius r, the exact first-order condition rearranges to

        c = dzbar + alpha conj(dz) + beta dz + gamma (conj(dzbar) - conj(c)),

    with alpha, beta, gamma ratios of double integrals over the unit circle
    and a segment parameter.  ``residual`` is the defect of that identity.
    """

    alpha: complex
    beta: complex
    gamma: complex
    residual: float


def _row_mean(a):
    """``np.mean(a, axis=-1)``, bit for bit, without its Python wrapper."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def _all(mask):
    """``mask.all()`` for a boolean array, without its Python wrapper."""
    return np.count_nonzero(mask) == mask.size


def _any(mask):
    """``mask.any()`` for a boolean array, without its Python wrapper."""
    return np.count_nonzero(mask) > 0


def _unit_scale_from(alpha):
    """The modulus from which a row of a fit at the power law ``F' ~ s**alpha``
    is fitted at unit scale: ``2**E``, at least 1 and at most ``HUGE_MODULUS``.

    The largest terms of the fit grow like |u|**q, q = max(alpha + 1, 2 alpha
    - 2): the objective's F(|u|) and the Hessian denominator ``a**2 - |b|**2``.
    E is the largest integer with (4 * 2**E)**q <= 2**1008.  A row's
    residuals start below 2 * 2**E, so these terms stay finite at residuals
    up to twice that bound, and so do their sums over 64 nodes, with the
    constant factors of the fit.  A row below ``2**E`` keeps the bits of its
    unscaled fit.  Such an E >= 0 exists while q <= 504, that is up to alpha
    = 253 (p = 254).  Past it E is 0, so a row is never scaled up, and the
    fit's terms may overflow at residuals of order 1 at any scale.
    """
    q = max(alpha + 1.0, 2.0 * alpha - 2.0)
    return min(HUGE_MODULUS, 2.0 ** max(0, int(1008.0 / q) - 2))


def _unit_scale_below(alpha):
    """The modulus below which a row of a fit at the power law ``F' ~
    s**alpha`` is fitted at unit scale: ``2**-E`` for the E of
    :func:`_unit_scale_from`, or ``TINY_MODULUS`` if that is larger.

    The mirror of the huge side: the fit's terms of growth exponent q stay
    above 2**-1008 at residuals down to a quarter of ``2**-E``, so a row
    fitted as it is keeps them normal until its residuals fall that far.
    Below ``TINY_MODULUS`` the fit's absolute tolerances, not the row, would
    decide its coefficient.
    """
    return max(TINY_MODULUS, 1.0 / _unit_scale_from(alpha))


def _node_terms(d):
    """The per-node terms of the Newton fit for the density ``d``.

    Returns ``(weight, objective, curvature, alpha)``: three functions of the
    squared residual moduli ``s2`` (rows, nodes), and the exponent of a power
    law or None:

    * ``weight(s2)`` is k = F'(|u|) / |u|, with any value where s2 = 0 (the
      fit sets k = 0 there, as F'(0) = 0);
    * ``objective(s2, k)`` is each row's mean of F(|u|);
    * ``curvature(s2, k)`` gives ``(wa, ca, wb, cb)`` for the Hessian
      coefficients ``a = ca * mean(wa |m|^2)`` and ``b = cb * mean(wb (u
      conj(m))^2)`` of H(w) = F(|w|), with wa = F'' + k and wb = (F'' -
      k) / s2 up to the factors ca and cb (s2 > 0 here).

    A power law ``F' = coeff * s**alpha`` (:func:`density._power_law`) needs
    one power per evaluation: k = coeff * s2**((alpha - 1) / 2), F = k s2 /
    (alpha + 1) and F'' = alpha k.  Any other density evaluates its
    ``value_fn``, ``deriv_fn`` and ``second_deriv_fn`` at |u|.
    """
    law = _power_law(d)
    if law is not None:
        coeff, alpha = law
        half_gap = 0.5 * (alpha - 1.0)

        def weight(s2):
            if half_gap < 0.0:
                with np.errstate(divide="ignore"):  # 0 ** negative at alpha < 1
                    k = s2**half_gap
            else:
                k = s2**half_gap
            if coeff != 1.0:
                k *= coeff
            return k

        def objective(s2, k):
            return _row_mean(k * s2) / (alpha + 1.0)

        def curvature(s2, k):
            return k, 0.25 * (alpha + 1.0), k / s2, 0.25 * (alpha - 1.0)

        return weight, objective, curvature, alpha

    def weight(s2):
        au = np.sqrt(s2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(d.deriv_fn(au), dtype=float) / au

    def objective(s2, k):
        return _row_mean(np.asarray(d.value_fn(np.sqrt(s2)), dtype=float))

    def curvature(s2, k):
        h = np.asarray(d.second_deriv_fn(np.sqrt(s2)), dtype=float)
        return h + k, 0.25, (h - k) / s2, 0.25

    return weight, objective, curvature, None


def fit_model_coefficient(d, samples, model, init):
    """Batched minimization of the mean over j of ``F(|samples_j - c model_j|)``.

    Every sum over a row's nodes is a mean along that row (:func:`_row_mean`),
    whose summation order does not depend on the other rows: a row's outputs
    have the same bits alone, in any batch and at any place in it.

    One Newton loop serves every density; only its per-node terms depend on
    the density (:func:`_node_terms`).  A power-law density, such as
    :func:`~holomeans.density.power_density`, takes the one-power kernel:
    each Newton iteration evaluates one power of the squared residual
    moduli, and the residuals of the step its line search accepts are those
    of the next iteration.  A row that converges, or whose Newton step is
    unusable, leaves the batch before the line search, so the line search
    evaluates only the rows that step.

    Two paths leave out work that cannot change a bit, and the input selects
    them.  The unit path: a model of ones shared by all rows (the constant
    model 1 of the pair mean's centre) skips the products by the model, its
    conjugate and its squared modulus, which are exact up to the sign of a
    zero, unless a start has a part -0.0, the one place such a sign shows.
    The fault-free path: an evaluation whose squared residual moduli all
    reach ``RESIDUAL_FLOOR**2`` skips the per-row floor masks and clamped
    copies, which change no row there.  So a row's bits do not depend on
    which path runs.

    Parameters
    ----------
    d : Density
    samples : complex array, shape (batch, nodes), finite, nodes >= 1
    model : complex array, shape (nodes,) shared by all rows or (batch, nodes)
        one per row; finite and bounded away from zero
    init : complex array, shape (batch,), finite

    Returns
    -------
    dict with arrays ``minimizer``, ``objective``, ``foc_residual``,
    ``iterations`` and integer ``status`` codes (1 converged, 3 failed).
    A row fails when its Newton direction is unusable, when its line search
    runs out of backtracks, or when the iteration budget ends above the
    first-order tolerance.  At a power law, a row whose largest modulus
    exceeds :func:`_unit_scale_from` of its exponent, or lies below
    :func:`_unit_scale_below` of it, is fitted at unit scale and scaled
    back.  At any other density, a row whose largest modulus
    exceeds ``HUGE_MODULUS`` fails at its start, with no iteration, an
    infinite objective and a NaN first-order residual.  So does a row whose
    first-order tolerance overflows, as at a power law past p = 254.

    Raises
    ------
    InvalidParameterError
        If the shapes do not match or the model vanishes at a node.
    NonFiniteSampleError
        If a sample or an initial value is NaN or infinite.
    """
    samples = np.asarray(samples, dtype=complex)
    model = np.asarray(model, dtype=complex)
    c = np.array(init, dtype=complex)
    if samples.ndim != 2 or model.shape not in (samples.shape, samples.shape[1:]):
        raise InvalidParameterError("samples must be (batch, nodes) matching model")
    if c.shape != samples.shape[:1]:
        raise InvalidParameterError(
            f"init must have one value per row: shape {samples.shape[:1]}, got {c.shape}"
        )
    if samples.shape[1] == 0:
        raise InvalidParameterError("samples need at least one node per row")
    # |z| is NaN or inf where z is not finite, and inf at a finite z only past
    # the largest float: z itself is tested only where some |z| is not finite.
    modulus = np.abs(samples)
    row_top = np.maximum.reduce(modulus, axis=-1)
    if not ((_all(row_top < np.inf) or _all(np.isfinite(samples))) and _all(np.isfinite(c))):
        raise NonFiniteSampleError("samples and init of a fit must be finite")
    mmod = np.abs(model)
    if not _all(np.isfinite(mmod) & (mmod > 0.0)):
        raise InvalidParameterError("model weights must be bounded away from zero")
    weight, objective, curvature, alpha = _node_terms(d)
    shared = model.ndim == 1
    floor2 = RESIDUAL_FLOOR**2
    # A power law is homogeneous: scaling a row by 2**-e scales its minimizer
    # alike, its objective by 2**-(e (alpha + 1)) and its first-order residual
    # by 2**-(e alpha).  So a row past _unit_scale_from(alpha), or below
    # _unit_scale_below(alpha), is fitted at unit scale and scaled back.
    mscale = np.maximum.reduce(mmod, axis=-1)
    top = np.maximum(row_top, np.abs(c) * mscale)
    if alpha is None:
        # F, F' and F'' may overflow past HUGE_MODULUS: such a row fails unevaluated.
        aside, scaled = top > HUGE_MODULUS, False
    else:
        aside, scaled = False, (top > _unit_scale_from(alpha)) | (top < _unit_scale_below(alpha))
    if _any(scaled):
        e = np.frexp(top[scaled])[1] - 1
        samples = samples.copy()
        samples[scaled] *= np.ldexp(1.0, -e)[:, None]
        c[scaled] *= np.ldexp(1.0, -e)
        modulus[scaled] = np.abs(samples[scaled])
    # The unit path's products by 1 are exact but for the sign of a zero,
    # which reaches the outputs only through a -0.0 part of the iterate; only
    # a start has one (after the scaling, which may underflow a part to -0.0),
    # and such a fit takes the general path.
    parts = c.view(float)
    unit = shared and _all(model == 1.0) and not _any(np.signbit(parts) & (parts == 0.0))

    # The active rows, in order, with their own rows of every per-row input.
    # Rows only ever leave; the arrays are re-indexed when one does, and a
    # row's outputs are written when it leaves.
    state = np.full(samples.shape[0], _STATUS_ACTIVE, dtype=int)
    foc_out = np.zeros(samples.shape[0])
    obj_out = np.full(samples.shape[0], np.inf)
    iters = np.zeros(samples.shape[0], dtype=int)
    act = np.arange(samples.shape[0])
    rows, per_row = samples, (model, np.conj(model), np.square(mmod, out=mmod), mscale)
    if _any(aside):
        modulus[aside] = 1.0  # not evaluated past HUGE_MODULUS
    # Past p = 254 the unit scale does not bound F' (_unit_scale_from), whose
    # mean may overflow.  A row whose tolerance does would pass any residual:
    # it fails at its start too.
    with np.errstate(over="ignore") if alpha is not None and alpha > 253.0 else nullcontext():
        tol = FOC_TOL_COEFF * (1.0 + _row_mean(np.asarray(d.deriv_fn(modulus), dtype=float)))
    del modulus
    if not np.maximum.reduce(tol, initial=0.0) < np.inf:
        aside = aside | (tol == np.inf)
    if _any(aside):
        state[aside], foc_out[aside] = _STATUS_FAILED, np.nan
        act = act[~aside]
        rows, tol = samples[act], tol[act]
        if not shared:
            per_row = tuple(a[act] for a in per_row)

    def evaluate(rows, m, cc):
        # Residuals at the coefficients cc, their squared moduli and gradient
        # weights, which rows have a residual below the floor (None if none
        # has), and the objective.  An exact zero gets weight 0.
        u = rows - (cc[:, None] if unit else cc[:, None] * m)
        s2 = np.square(u.real)
        s2 += np.square(u.imag)
        if s2.size == 0 or s2.min() >= floor2:  # fault-free (a NaN fails the test)
            k = weight(s2)
            return u, s2, k, None, objective(s2, k)
        near = (s2 < floor2).any(axis=1)
        k = weight(s2)
        if _any(near):
            k[near] = np.where(s2[near] > 0.0, k[near], 0.0)
        else:
            near = None
        return u, s2, k, near, objective(s2, k)

    def leave(sel, status):
        # The active rows ``sel`` leave with their coefficients, objectives
        # and first-order residuals at the current iterate.
        gone = act[sel]
        state[gone] = status
        c[gone], obj_out[gone], foc_out[gone], iters[gone] = cur[sel], obj[sel], foc[sel], it

    # The terms at the active rows' current coefficients.
    cur = c[act]
    u, s2, k, near, obj = evaluate(rows, per_row[0], cur)

    for it in range(MAX_NEWTON_ITERATIONS + 1):
        if act.size == 0:
            break
        m, mc, mmod2, mscale = per_row
        um = u if unit else np.multiply(u, mc, out=u)  # u is spent
        g = -0.5 * _row_mean(k * um)
        foc = np.abs(g) if unit else np.abs(g) / mscale
        s2_h, k_h = s2, k
        if near is not None:
            # A row whose residuals all lie below the floor is an exact fit.
            # The Hessian clamps the residual moduli below it at the floor.
            foc[near] = np.where((s2[near] < floor2).all(axis=1), 0.0, foc[near])
            s2_h, k_h = s2.copy(), k.copy()
            s2_h[near] = np.maximum(s2[near], floor2)
            k_h[near] = weight(s2_h[near])
        small_foc = foc <= tol
        if it == MAX_NEWTON_ITERATIONS:
            # Iteration budget exhausted.  Near a flat optimum the Newton step
            # stalls at the float noise floor without ever satisfying STEP_TOL;
            # accept rows whose final iterate meets the first-order tolerance
            # and fail only the rest.
            leave(slice(None), np.where(small_foc, _STATUS_CONVERGED, _STATUS_FAILED))
            break
        # A row with an exactly-zero pointwise residual converges on the
        # gradient alone; otherwise it stays in Newton, whose Hessian clamps
        # that residual's modulus at the floor.  None: no row stops.
        stop = None if near is None else small_foc & near
        wa, ca, wb, cb = curvature(s2_h, k_h)
        a_coef = ca * _row_mean(wa if unit else wa * mmod2)
        np.multiply(um, um, out=um)  # um is spent too
        b_coef = cb * _row_mean(np.multiply(wb, um, out=um))
        # The line search makes the next terms; drop these first.
        del u, s2, k, um, wa, wb, s2_h, k_h
        g_conj = np.conj(g)
        # A row whose Hessian or step overflows takes none.
        with np.errstate(over="ignore", invalid="ignore"):
            denom = a_coef**2 - np.abs(b_coef) ** 2
            good = np.isfinite(denom) & (denom > 0.0)
            step = -a_coef * g + b_coef * g_conj
            if _all(good):
                delta = step / denom
            else:
                delta = np.zeros_like(g)
                np.divide(step, denom, out=delta, where=good)
            if _any(small_foc):
                settled = small_foc & good & (np.abs(delta) <= STEP_TOL * (1.0 + np.abs(cur)))
                stop = settled if stop is None else stop | settled
            slope = 2.0 * (g_conj * delta).real
        good &= np.isfinite(slope) & (slope < 0.0)
        if stop is not None:
            good &= ~stop
        # Only the rows with a usable step go on to the line search.
        if not _all(good):
            gone = ~good
            leave(gone, _STATUS_FAILED if stop is None
                  else np.where(stop[gone], _STATUS_CONVERGED, _STATUS_FAILED))
            if not _any(good):
                break
            act, rows, tol, cur, delta, slope, obj, foc = (
                a[good] for a in (act, rows, tol, cur, delta, slope, obj, foc)
            )
            if not shared:
                per_row = tuple(a[good] for a in per_row)
                m = per_row[0]

        # Armijo line search.  Near the optimum the true decrease of a Newton
        # step can drop below the float resolution of the objective; a
        # few-ulp allowance keeps the line search from rejecting such steps,
        # and the gradient-based settling test then certifies convergence.
        flat = _FLAT_ULPS * (1.0 + np.abs(obj))
        cand = cur + delta
        u, s2, k, near, obj1 = evaluate(rows, m, cand)
        ok = np.isfinite(obj1) & (obj1 <= obj + ARMIJO_SLOPE * slope + flat)  # t = 1
        if not _all(ok):
            t = np.ones(act.size)
            pend = np.flatnonzero(~ok)
            for _ in range(MAX_BACKTRACKS - 1):
                if pend.size == 0:
                    break
                t[pend] *= BACKTRACK_FACTOR
                cand[pend] = cur[pend] + t[pend] * delta[pend]
                u[pend], s2[pend], k[pend], near_t, obj_t = evaluate(
                    rows[pend], m if shared else m[pend], cand[pend])
                obj1[pend] = obj_t
                if near is not None or near_t is not None:
                    if near is None:
                        near = np.zeros(act.size, dtype=bool)
                    near[pend] = False if near_t is None else near_t
                hit = np.isfinite(obj_t) & (
                    obj_t <= obj[pend] + ARMIJO_SLOPE * t[pend] * slope[pend] + flat[pend]
                )
                ok[pend[hit]] = True
                pend = pend[~hit]
            if pend.size:
                # These rows ran out of backtracks: they fail at their
                # pre-step iterate, and the others go on with the terms at
                # their new coefficients.
                leave(pend, _STATUS_FAILED)
                if not _any(ok):
                    break
                act, rows, tol, cand, obj1, u, s2, k = (
                    a[ok] for a in (act, rows, tol, cand, obj1, u, s2, k)
                )
                if near is not None:
                    near = near[ok]
                if not shared:
                    per_row = tuple(a[ok] for a in per_row)
        cur, obj = cand, obj1

    if _any(scaled):
        c[scaled] *= np.ldexp(1.0, e)
        with np.errstate(divide="ignore", over="ignore"):  # 0 stays 0, and may overflow
            obj_out[scaled] = np.exp2(np.log2(obj_out[scaled]) + e * (alpha + 1.0))
            foc_out[scaled] = np.exp2(np.log2(foc_out[scaled]) + e * alpha)
    return {
        "minimizer": c,
        "objective": obj_out,
        "foc_residual": foc_out,
        "iterations": iters,
        "status": state,
    }


def _newton_starts(kind, samples, offsets, r):
    """The ``kind`` mean's Newton starts ``(center, slope)``, None where not fitted:
    the circle average, and the quadratic closed form (``offsets`` from the centre).
    At the quadratic density the starts are the means themselves."""
    center = _row_mean(samples) if kind in ("center", "pair") else None
    slope = None if kind == "center" else _row_mean(samples * offsets) / r**2
    return center, slope


def _newton_fits(kind, d, samples, offsets, r, model=None):
    """The ``kind`` mean's fits ``(center, slope)`` from its :func:`_newton_starts`,
    None where not fitted: the centre on the shared model 1 and the slope on
    ``conj(offsets)``, written into ``model`` when given (it may be ``offsets``)."""
    center, slope = _newton_starts(kind, samples, offsets, r)
    if center is not None:
        center = fit_model_coefficient(d, samples, np.ones(samples.shape[1], dtype=complex),
                                       center)
    if slope is not None:
        slope = fit_model_coefficient(d, samples, np.conjugate(offsets, out=model), slope)
    return center, slope


def _mean_result(cols, i, r):
    # The fits average over the nodes; the objective is the integral on the
    # circle, whose length is 2 pi r.
    c, obj, foc, it, code = (cols[name][0, i] for name in
                             ("minimizer", "objective", "foc_residual", "iterations", "status"))
    return MeanResult(complex(c), float(2.0 * np.pi * r * obj), float(foc), int(it),
                      _STATUS_NAMES[int(code)])


def circle_means(kind, f, points, r, d, node_count=DEFAULT_CIRCLE_NODES, seed=0):
    """One circle mean of ``f`` at every point for the radius ``r``.

    ``kind`` is one of ``MEAN_KINDS``; each is documented at its one-point
    function (``variational_circle_mean``, ``center_circle_mean``,
    ``pair_mean``, ``conjugate_transformed_mean``, ``infinity_mean``).  All
    circles are sampled in one field call and all points are fitted in one
    :func:`fit_model_coefficient` call per model.  ``d`` is unused by the
    sup-norm mean, ``seed`` is used by it alone.

    Returns a tuple with one entry per point: the mean's result, or the
    error its one-point function raises for that point alone.  These are an
    :class:`~holomeans.errors.InvalidParameterError` for a non-finite point,
    whose circle is not sampled, a
    :class:`~holomeans.errors.NonFiniteSampleError` for a non-finite sample
    on the point's circle or, for the conjugate mean, a transformed sample
    that overflows, a :class:`~holomeans.errors.ZeroFieldError` where
    the conjugate transform meets a zero of the field, and an
    :class:`~holomeans.errors.InvalidParameterError` where the radius is
    below the float resolution at the point, so the slope model vanishes at
    a node.  Errors that concern every point are raised.
    """
    r = float(r)
    cols = _ladder_means(kind, f, points, [r], d, node_count, seed)
    out = []
    for i, error in enumerate(cols["errors"][0]):
        if error is not None:
            out.append(error)
        elif kind == "infinity":
            out.append(InfinityMeanResult(complex(cols["value"][0, i]),
                                          float(cols["objective"][0, i]),
                                          int(cols["support_count"][0, i]), "converged"))
        elif kind == "pair":
            out.append(PairMeanResult(_mean_result(cols["center"], i, r),
                                      _mean_result(cols["slope"], i, r), r,
                                      complex(cols["value"][0, i])))
        else:
            out.append(_mean_result(cols, i, r))
    return tuple(out)


def _ladder_means(kind, f, points, radii, d, node_count=DEFAULT_CIRCLE_NODES, seed=0):
    """:func:`circle_means` at every radius of ``radii``, as columns.

    One field call samples every (radius, point) circle and
    :func:`_newton_fits` fits every row, in one call per model.  Returns a
    dict of (radii, points) arrays: ``errors`` (None, or the row's error),
    ``value`` (the pair mean's a + r b, else the minimizer), ``status`` (1
    converged, else 3) and the fit's other outputs, NaN or 0 at a row with
    an error.  A non-finite point is refused: the other points are solved
    without it, and its rows get its error.  The pair mean has its fits'
    larger ``foc_residual``, summed ``iterations``, and the ``center`` and
    ``slope`` dicts of their columns.
    """
    if kind not in MEAN_KINDS:
        raise InvalidParameterError(
            f"unknown mean kind {kind!r}; expected one of {MEAN_KINDS}"
        )
    unit = _unit_nodes(node_count)
    n = unit.size
    radii = np.asarray(radii, dtype=float)
    bad = ~(np.isfinite(radii) & (radii > 0.0))
    if _any(bad):
        raise InvalidParameterError(
            f"circle radius must be positive, got {radii[np.argmax(bad)]}"
        )
    z = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    finite = np.isfinite(z)
    if not _all(finite):
        return _refusing(_ladder_means(kind, f, z[finite], radii, d, node_count, seed),
                         z, finite)
    nodes = z[None, :, None] + (radii[:, None] * unit)[:, None, :]
    offsets = (nodes - z[None, :, None]).reshape(-1, n)
    samples = field_values(f, nodes).reshape(-1, n)
    nodes = nodes.reshape(-1, n)
    rr = np.repeat(radii, z.size)
    errors = np.full(rr.size, None, dtype=object)
    failed = np.zeros(rr.size, dtype=bool)

    def fail(rows, error):
        # Each of the rows ``rows`` that has no error yet gets ``error(i)``.
        for i in np.flatnonzero(rows & ~failed):
            errors[i] = error(i)
            failed[i] = True

    finite = np.isfinite(samples)
    if not _all(finite):
        fail(~finite.all(axis=1), lambda i: nonfinite_error(nodes[i], samples[i]))
    if kind == "conjugate":
        mod = np.abs(samples)
        low = mod < TRANSFORM_FLOOR
        if _any(low):
            fail(low.any(axis=1), lambda i: ZeroFieldError(
                f"conjugate transform needs |g| >= {TRANSFORM_FLOOR:g} on the circle; "
                f"|g({nodes[i, np.argmin(mod[i])]:.6g})| = {np.min(mod[i]):.3e}"
            ))
    if kind not in ("center", "infinity"):
        vanishing = offsets == 0.0  # where the model conj(offsets) vanishes
        if _any(vanishing):
            fail(vanishing.any(axis=1), lambda i: InvalidParameterError(
                "model weights must be bounded away from zero"
            ))
    if kind == "conjugate":
        # Rows that failed above transform |g| = 1 in place of theirs.  G'
        # may overflow at a huge |g|: that row gets a typed error and leaves
        # the fit, so it cannot refuse the other rows' batch.
        mod[failed] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            samples = young_conjugate(d).deriv_fn(mod) * samples / mod
        finite = np.isfinite(samples)
        if not _all(finite):
            fail(~finite.all(axis=1), lambda i: NonFiniteSampleError(
                f"conjugate transform is not finite on the circle; "
                f"|g| reaches {np.max(mod[i]):.3e}"
            ))
    del nodes
    # The rows without an error go on to the fit.
    some_failed = _any(failed)
    live = ~failed if some_failed else slice(None)
    samples, offsets, r = samples[live], offsets[live], rr[live]

    if kind == "infinity":
        v = samples * offsets / r[:, None] ** 2
        found = [_smallest_enclosing_circle(row.tolist(), seed) for row in v]
        center = np.array([c for c, _ in found], dtype=complex)
        value = r * np.array([radius for _, radius in found])
        attained = r[:, None] * np.abs(v - center[:, None])
        fit = {"minimizer": center, "objective": value,
               "status": np.full(r.size, _STATUS_CONVERGED),
               "support_count": np.sum(attained >= (value - 1e-9 * (1.0 + value))[:, None],
                                       axis=1)}
    else:
        # The model conj(offsets) takes the place of the offsets.
        a, b = _newton_fits(kind, d, samples, offsets, r, model=offsets)
        fit = b if a is None else a
    shape = (radii.size, z.size)

    def columns(fit):
        # The fit's rows, put in (radii, points) columns at the live rows.
        out = {"errors": errors.reshape(shape)}
        for name, a in fit.items():
            if some_failed:
                col = np.full(rr.size, _FILL.get(name, np.nan), dtype=a.dtype)
                col[live] = a
                a = col
            out[name] = a.reshape(shape)
        return out

    if kind != "pair":
        out = columns(fit)
        return dict(out, value=out["minimizer"])
    a, b = columns(a), columns(b)
    both = (a["status"] == _STATUS_CONVERGED) & (b["status"] == _STATUS_CONVERGED)
    return dict(errors=a["errors"], center=a, slope=b,
                value=a["minimizer"] + radii[:, None] * b["minimizer"],
                status=np.where(both, _STATUS_CONVERGED, _STATUS_FAILED),
                foc_residual=np.maximum(a["foc_residual"], b["foc_residual"]),
                iterations=a["iterations"] + b["iterations"])


def _refusing(cols, z, finite):
    """:func:`_ladder_means` columns over all the points ``z`` from ``cols``,
    those of the ``finite`` ones: every radius of a non-finite point gets the
    error that refuses it, and the fill of a row with an error."""
    out = {}
    for name, a in cols.items():
        if isinstance(a, dict):
            out[name] = _refusing(a, z, finite)
            continue
        fill = None if name == "errors" else _FILL.get(name, np.nan)
        full = np.full((a.shape[0], z.size), fill, dtype=a.dtype)
        full[:, finite] = a
        if name == "errors":
            for i in np.flatnonzero(~finite):
                full[:, i] = _refused_point(z[i])
        out[name] = full
    return out


def _one_point(kind, f, z, r, d, node_count, seed=0):
    return _raise_first(circle_means(kind, f, [complex(z)], r, d, node_count, seed))[0]


def variational_circle_mean(f, z, r, d, node_count=DEFAULT_CIRCLE_NODES):
    """Derivative-detecting circle mean of ``f`` at ``z`` with radius ``r``.

    Minimizes ``integral of F(|f(zeta) - c conj(zeta - z)|)`` over the
    circle.  Initialized at the quadratic closed form, which is exact for
    the power density with p = 2.
    """
    return _one_point("variational", f, z, r, d, node_count)


def center_circle_mean(f, z, r, d, node_count=DEFAULT_CIRCLE_NODES):
    """Constant-model circle mean: the F-barycenter of f on the circle.

    Initialized at the plain circle average.
    """
    return _one_point("center", f, z, r, d, node_count)


def pair_mean(f, z, r, d, node_count=DEFAULT_CIRCLE_NODES):
    """Pair mean: center a plus slope b with value a + r b.

    The pair mean is defined as two single-model solves: a is the
    constant-model mean and b the derivative-detecting mean, each minimized
    on its own.  This is not the minimizer of the joint objective over
    (a, b): the two models decouple only for the quadratic density.
    """
    return _one_point("pair", f, z, r, d, node_count)


def conjugate_transformed_mean(g, z, r, d, node_count=DEFAULT_CIRCLE_NODES):
    """Circle mean of the conjugate-slope transform of ``g``.

    The samples are mapped through ``t -> G'(|g|) g / |g|`` with G the Young
    conjugate of F, then fed to the derivative-detecting mean with F itself.
    Vanishing of the small-radius limit characterizes holomorphy of g.

    Raises
    ------
    ZeroFieldError
        If any circle sample has ``|g| < TRANSFORM_FLOOR``; the transform
        needs a nonvanishing field.
    """
    return _one_point("conjugate", g, z, r, d, node_count)


# -- sup-norm mean ----------------------------------------------------------

def _circle_from_two(a, b):
    center = (a + b) / 2.0
    return center, abs(a - center)


def _circumcircle(a, b, c):
    # shift by the centroid to control cancellation
    o = (a + b + c) / 3.0
    ax, ay = (a - o).real, (a - o).imag
    bx, by = (b - o).real, (b - o).imag
    cx, cy = (c - o).real, (c - o).imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    center = o + complex(ux, uy)
    radius = max(abs(a - center), abs(b - center), abs(c - center))
    return center, radius


def _inside(circle, p):
    return circle is not None and abs(p - circle[0]) <= circle[1] * (1.0 + 1e-14)


def _smallest_enclosing_circle(points, seed):
    """Randomized incremental smallest enclosing circle (expected linear time)."""
    pts = list(points)
    random.Random(seed).shuffle(pts)
    circle = None
    for i, p in enumerate(pts):
        if _inside(circle, p):
            continue
        circle = (p, 0.0)
        for j in range(i):
            q = pts[j]
            if _inside(circle, q):
                continue
            circle = _circle_from_two(p, q)
            for k in range(j):
                s = pts[k]
                if _inside(circle, s):
                    continue
                cc = _circumcircle(p, q, s)
                if cc is not None:
                    circle = cc
    return circle


def infinity_mean(f, z, r, node_count=DEFAULT_CIRCLE_NODES, seed=0):
    """Sup-norm circle mean: minimize ``max_j |f(zeta_j) - c conj(zeta_j - z)|``.

    Since |conj(zeta - z)| = r on the circle, dividing through reduces the
    problem to the Chebyshev center of the points ``f(zeta_j)(zeta_j - z)/r**2``,
    i.e. a smallest enclosing circle, solved exactly.  The fixed shuffle seed
    makes the run deterministic.
    """
    return _one_point("infinity", f, z, r, None, node_count, seed)


def affine_mean_identity(jet, r, c, d, node_count=DEFAULT_CIRCLE_NODES, radial_nodes=32):
    """Coefficients and defect of the exact identity for affine-field means.

    Parameters
    ----------
    jet : geometry.Jet
        The affine field's coefficients (value, dz, dzbar) at its base point.
    r : float
        Circle radius.
    c : complex
        A computed variational circle mean of that affine field at radius r.
    d : Density

    Notes
    -----
    The integrand is evaluated on a tensor grid (unit circle) x (segment
    parameter in [0, 1], Gauss-Legendre).  A node where the segment argument
    vanishes exactly is nudged by half a step; the singularity is integrable.
    """
    if abs(jet.value) < FIELD_FLOOR:
        raise ZeroFieldError(
            f"affine identity needs |value| >= {FIELD_FLOOR:g} at the base point"
        )
    unit = circle_rule(0j, 1.0, node_count)
    m = int(radial_nodes)
    if m < 4:
        raise InvalidParameterError(f"need at least 4 segment nodes, got {m}")
    omega, sig, tau = complex(jet.value), complex(jet.dz), complex(jet.dzbar)
    c = complex(c)

    zeta = unit.nodes
    x, v = np.polynomial.legendre.leggauss(m)
    t = 0.5 * (x + 1.0)
    t_w = 0.5 * v

    direction = sig * zeta + (tau - c) * np.conj(zeta)
    w = omega + r * t[:, None] * direction[None, :]
    aw = np.abs(w)
    tiny = aw < 1e-12
    if np.any(tiny):
        warnings.warn(
            "segment argument hit zero at a quadrature node; nudging by a "
            "half step (integrable singularity)",
            RuntimeWarning,
            stacklevel=2,
        )
        gap = 0.5 * np.min(np.diff(np.sort(t)))
        t_shift = np.where(np.any(tiny, axis=1), t + gap, t)
        w = omega + r * t_shift[:, None] * direction[None, :]
        aw = np.abs(w)

    kernel = np.asarray(d.deriv_fn(aw), dtype=float) / aw
    lam = aw * np.asarray(d.second_deriv_fn(aw), dtype=float) / np.asarray(
        d.deriv_fn(aw), dtype=float
    )
    meas = t_w[:, None] * unit.weights[None, :]
    phase2 = w / np.conj(w)

    den = float(np.sum(kernel * (lam + 1.0) * meas).real)
    alpha = np.sum(kernel * (lam - 1.0) * phase2 * meas) / den
    beta = np.sum(kernel * (lam + 1.0) * (zeta**2)[None, :] * meas) / den
    gamma = np.sum(kernel * (lam - 1.0) * phase2 * (zeta**2)[None, :] * meas) / den

    predicted = tau + alpha * np.conj(sig) + beta * sig + gamma * (
        np.conj(tau) - np.conj(c)
    )
    return AffineIdentityResult(
        alpha=complex(alpha),
        beta=complex(beta),
        gamma=complex(gamma),
        residual=float(abs(c - predicted)),
    )
