"""Variational means of complex fields over circles.

The central problem solved here: given samples of a field f on the circle of
radius r at z, a convex radial density F and a model weight m(zeta), find the
complex coefficient c minimizing

    sum_j w_j F(|f(zeta_j) - c * m(zeta_j)|).

Two model weights cover every mean in the package: ``m = conj(zeta - z)``
gives the derivative-detecting circle mean, ``m = 1`` the center component of
the pair mean.  The minimizer is unique (strict convexity plus growth), and
the solver is a damped Newton iteration in the two real coordinates of c
using the exact complex Hessian of H(w) = F(|w|), with an Armijo line search.
Where an iterate puts a residual exactly at zero, H stops being twice
differentiable; the Hessian then clamps that residual's modulus at
``RESIDUAL_FLOOR``, which keeps the Newton step a descent direction.

The sup-norm mean is different in kind: it reduces to a smallest enclosing
circle problem and is solved exactly by a randomized incremental algorithm.

Every mean is computed by one engine, which takes all points of a whole
ladder of radii at once: one field call samples every circle and one Newton
solve per model fits every (radius, point) row, so a sweep is one solve.
:func:`circle_means` is its one-radius call.  A row whose circle cannot be
solved gets its own error value and leaves the other rows untouched.  The
one-point functions are one-row calls to it, so they return the same bits
as a dedicated one-point solve; in a multi-row call the matrix-vector
products may round a row differently in the last bit.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

import numpy as np

from .density import young_conjugate
from .errors import InvalidParameterError, ZeroFieldError, _raise_first
from .geometry import circle_rule, field_values, nonfinite_error
from .pdesystem import FIELD_FLOOR

__all__ = [
    "SolverConfig",
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

# Newton solver constants.  The first-order stopping tolerance is
# FOC_TOL_COEFF * (1 + mean of F'(|f|) on the circle).  A pointwise residual
# of modulus below RESIDUAL_FLOOR counts as an exact zero: the Hessian clamps
# residual moduli at this floor, and a row whose residuals all lie below it
# is an exact fit.  The line search accepts a step t when the objective drops
# by ARMIJO_SLOPE * t * slope and otherwise shrinks t by BACKTRACK_FACTOR.
FOC_TOL_COEFF = 1e-10
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
RESIDUAL_FLOOR = 1e-12

_STATUS_ACTIVE = 0
_STATUS_CONVERGED = 1
_STATUS_FAILED = 3
_STATUS_NAMES = {
    _STATUS_CONVERGED: "converged",
    _STATUS_FAILED: "failed",
}


@dataclass(frozen=True)
class SolverConfig:
    """Budgets and step tolerance of the Newton solver.

    A row converges when its first-order residual is within the tolerance
    set by ``FOC_TOL_COEFF`` and its pending Newton step is at most
    ``step_tol * (1 + |c|)``: when the density degenerates at small
    residuals (growth exponent above 2) a small gradient alone does not
    bound the parameter error, and the step length is the sound certificate.
    ``max_backtracks`` bounds the trial steps of every line search, the full
    Newton step first, so it is at least 1.
    """

    max_iterations: int = 60
    step_tol: float = 1e-11
    max_backtracks: int = 60

    def __post_init__(self):
        if self.max_iterations < 0:
            raise InvalidParameterError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if not 0.0 <= self.step_tol < np.inf:
            raise InvalidParameterError(
                f"step_tol must be finite and >= 0, got {self.step_tol}"
            )
        if self.max_backtracks < 1:
            raise InvalidParameterError(
                f"max_backtracks must be >= 1, got {self.max_backtracks}"
            )


@dataclass(frozen=True)
class MeanResult:
    """Outcome of one variational mean solve.

    ``foc_residual`` is the modulus of the first-order condition scaled by
    the total quadrature weight and the model modulus, so it is comparable
    with F' values.  ``status`` is ``converged`` or ``failed``; a failed
    result still carries the best iterate.
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


def _objective_rows(d, samples, weights, model, c):
    u = samples - c[:, None] * model
    return np.asarray(d.value_fn(np.abs(u)), dtype=float) @ weights


def fit_model_coefficient(d, samples, weights, model, init, cfg=None):
    """Batched minimization of ``sum_j w_j F(|samples_j - c model_j|)``.

    Parameters
    ----------
    d : Density
    samples : complex array, shape (batch, nodes)
    weights : positive float array, shape (nodes,)
    model : complex array, shape (nodes,) shared by all rows or (batch, nodes)
        one per row; bounded away from zero
    init : complex array, shape (batch,)
    cfg : SolverConfig, optional

    Returns
    -------
    dict with arrays ``minimizer``, ``objective``, ``foc_residual``,
    ``iterations`` and integer ``status`` codes (1 converged, 3 failed).
    A row fails when its Newton direction is unusable, when its line search
    runs out of backtracks, or when the iteration budget ends above the
    first-order tolerance.
    """
    cfg = cfg or SolverConfig()
    samples = np.asarray(samples, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    model = np.asarray(model, dtype=complex)
    if samples.ndim != 2 or model.shape not in (samples.shape, samples.shape[1:]):
        raise InvalidParameterError("samples must be (batch, nodes) matching model")
    mmod = np.abs(model)
    if float(np.min(mmod)) <= 0.0:
        raise InvalidParameterError("model weights must be bounded away from zero")
    mscale = np.max(mmod, axis=-1)
    conj_model = np.conj(model)
    mmod2, conj_model2 = mmod**2, conj_model**2
    total_w = float(np.sum(weights))

    nbatch = samples.shape[0]
    c = np.asarray(init, dtype=complex).copy()
    state = np.full(nbatch, _STATUS_ACTIVE, dtype=int)
    foc_out = np.zeros(nbatch)
    iters = np.zeros(nbatch, dtype=int)

    favg = (np.asarray(d.deriv_fn(np.abs(samples)), dtype=float) @ weights) / total_w
    foc_tol = FOC_TOL_COEFF * (1.0 + favg)

    def per_row(a, rows):
        # A shared (nodes,) model broadcasts as it is, without a copy.
        return a[rows] if model.ndim == 2 else a

    def gradient(rows, cc):
        u = samples[rows] - cc[:, None] * per_row(model, rows)
        au = np.abs(u)
        au_safe = np.where(au > 0.0, au, 1.0)
        fp = np.asarray(d.deriv_fn(au), dtype=float)
        g = -0.5 * ((fp * (u / au_safe) * per_row(conj_model, rows)) @ weights)
        return u, au, g

    for it in range(cfg.max_iterations + 1):
        act = np.flatnonzero(state == _STATUS_ACTIVE)
        if act.size == 0:
            break
        u, au, g = gradient(act, c[act])
        foc = np.abs(g) / (total_w * per_row(mscale, act))
        exact = np.all(au < RESIDUAL_FLOOR, axis=1)
        foc = np.where(exact, 0.0, foc)
        foc_out[act] = foc
        iters[act] = it
        small_foc = foc <= foc_tol[act]
        if it == cfg.max_iterations:
            # Iteration budget exhausted.  Near a flat optimum the Newton step
            # stalls at the float noise floor without ever satisfying step_tol;
            # accept rows whose final iterate meets the first-order tolerance
            # and fail only the rest.
            state[act[small_foc]] = _STATUS_CONVERGED
            state[act[~small_foc]] = _STATUS_FAILED
            break
        # A row with an exactly-zero pointwise residual converges on the
        # gradient alone; otherwise it stays in Newton, whose Hessian clamps
        # that residual's modulus at the floor.
        done = small_foc & np.any(au < RESIDUAL_FLOOR, axis=1)
        state[act[done]] = _STATUS_CONVERGED
        rem = ~done

        rows = act[rem]
        small_foc = small_foc[rem]
        u_r, au_r, g_r = u[rem], au[rem], g[rem]
        au_s = np.maximum(au_r, RESIDUAL_FLOOR)
        fp = np.asarray(d.deriv_fn(au_s), dtype=float)
        fpp = np.asarray(d.second_deriv_fn(au_s), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = au_s * fpp / fp
        lam = np.where(np.isfinite(lam), lam, 1.0)
        base = fp / (4.0 * au_s)
        a_coef = ((base * (lam + 1.0)) * per_row(mmod2, rows)) @ weights
        phase2 = (u_r / au_s) ** 2
        b_coef = ((base * (lam - 1.0)) * phase2 * per_row(conj_model2, rows)) @ weights
        denom = a_coef**2 - np.abs(b_coef) ** 2
        good = np.isfinite(denom) & (denom > 0.0)
        delta = np.zeros_like(g_r)
        np.divide(
            -a_coef * g_r + b_coef * np.conj(g_r),
            denom,
            out=delta,
            where=good,
        )
        settled = (
            small_foc
            & good
            & (np.abs(delta) <= cfg.step_tol * (1.0 + np.abs(c[rows])))
        )
        state[rows[settled]] = _STATUS_CONVERGED
        slope = 2.0 * np.real(np.conj(g_r) * delta)
        good &= np.isfinite(slope) & (slope < 0.0) & ~settled
        state[rows[~good & ~settled]] = _STATUS_FAILED
        rows, delta, slope = rows[good], delta[good], slope[good]

        row_model = per_row(model, rows)
        obj0 = _objective_rows(d, samples[rows], weights, row_model, c[rows])
        # Near the optimum the true decrease of a Newton step can drop below
        # the float resolution of the objective; a few-ulp allowance keeps
        # the line search from rejecting such steps, and the gradient-based
        # settling test then certifies convergence.
        flat = 16.0 * np.finfo(float).eps * (1.0 + np.abs(obj0))
        t = np.ones(rows.size)
        ok = np.zeros(rows.size, dtype=bool)
        for _ in range(cfg.max_backtracks):
            cand = c[rows] + t * delta
            obj1 = _objective_rows(d, samples[rows], weights, row_model, cand)
            ok = np.isfinite(obj1) & (
                obj1 <= obj0 + ARMIJO_SLOPE * t * slope + flat
            )
            if np.all(ok):
                break
            t = np.where(ok, t, t * BACKTRACK_FACTOR)
        c[rows[ok]] += (t * delta)[ok]
        state[rows[~ok]] = _STATUS_FAILED

    return {
        "minimizer": c,
        "objective": _objective_rows(d, samples, weights, model, c),
        "foc_residual": foc_out,
        "iterations": iters,
        "status": state,
    }


def _mean_results(fit, radii):
    # The fits weigh the unit circle; the objective is the one on each row's
    # own circle, whose weights are the radius times the unit ones.
    return [
        MeanResult(
            minimizer=complex(c),
            objective=float(r * obj),
            foc_residual=float(foc),
            iterations=int(it),
            status=_STATUS_NAMES[int(code)],
        )
        for c, obj, foc, it, code, r in zip(
            fit["minimizer"], fit["objective"], fit["foc_residual"],
            fit["iterations"], fit["status"], radii,
        )
    ]


def circle_means(kind, f, points, r, d, node_count=64, cfg=None, seed=0):
    """One circle mean of ``f`` at every point for the radius ``r``.

    ``kind`` is one of ``MEAN_KINDS``; each is documented at its one-point
    function (``variational_circle_mean``, ``center_circle_mean``,
    ``pair_mean``, ``conjugate_transformed_mean``, ``infinity_mean``).  All
    circles are sampled in one field call and each model is fitted in one
    :func:`fit_model_coefficient` call over all points.  ``d`` and ``cfg``
    are unused by the sup-norm mean, ``seed`` is used by it alone.

    Returns a tuple with one entry per point: the mean's result, or the
    error its one-point function raises for that point alone.  These are a
    :class:`~holomeans.errors.NonFiniteSampleError` for a non-finite sample
    on the point's circle, a :class:`~holomeans.errors.ZeroFieldError` where
    the conjugate transform meets a zero of the field, and an
    :class:`~holomeans.errors.InvalidParameterError` where the radius is
    below the float resolution at the point, so the slope model vanishes at
    a node.  Errors that concern every point are raised.
    """
    return _ladder_means(kind, f, points, [r], d, node_count, cfg, seed)[0]


def _ladder_means(kind, f, points, radii, d, node_count=64, cfg=None, seed=0):
    """:func:`circle_means` at every radius of ``radii``: one tuple per radius.

    Every circle of every (radius, point) row is sampled in one field call
    on a (radii, points, nodes) array, and each model is fitted in one
    :func:`fit_model_coefficient` call over all rows.  The fits weigh every
    row with the unit-circle weights, which leaves its minimizer unchanged,
    and fit the coefficient of its own slope model conj(zeta - z).  A row
    that cannot be solved gets its error in its own (radius, point) slot.
    """
    if kind not in MEAN_KINDS:
        raise InvalidParameterError(
            f"unknown mean kind {kind!r}; expected one of {MEAN_KINDS}"
        )
    unit = circle_rule(0j, 1.0, node_count)
    n = unit.nodes.size
    radii = np.asarray(radii, dtype=float)
    bad = ~(np.isfinite(radii) & (radii > 0.0))
    if np.any(bad):
        raise InvalidParameterError(
            f"circle radius must be positive, got {radii[np.argmax(bad)]}"
        )
    z = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    nodes = z[None, :, None] + (radii[:, None] * unit.nodes)[:, None, :]
    offsets = (nodes - z[None, :, None]).reshape(-1, n)
    samples = field_values(f, nodes).reshape(-1, n)
    nodes = nodes.reshape(-1, n)
    rr = np.repeat(radii, z.size)
    errors = [None] * rr.size

    def fail(rows, error):
        for i in np.flatnonzero(rows):
            if errors[i] is None:
                errors[i] = error(i)

    fail(~np.all(np.isfinite(samples), axis=1),
         lambda i: nonfinite_error(nodes[i], samples[i]))
    if kind == "conjugate":
        mod = np.abs(samples)
        fail(np.any(mod < TRANSFORM_FLOOR, axis=1), lambda i: ZeroFieldError(
            f"conjugate transform needs |g| >= {TRANSFORM_FLOOR:g} on the circle; "
            f"|g({nodes[i, np.argmin(mod[i])]:.6g})| = {np.min(mod[i]):.3e}"
        ))
    model = np.conj(offsets)
    if kind not in ("center", "infinity"):
        fail(np.min(np.abs(model), axis=1) <= 0.0, lambda i: InvalidParameterError(
            "model weights must be bounded away from zero"
        ))
    live = np.flatnonzero([e is None for e in errors])
    out = list(errors)

    if kind == "infinity":
        v = samples * offsets / rr[:, None] ** 2
        for i in live:
            center, radius = _smallest_enclosing_circle(v[i].tolist(), seed)
            value = rr[i] * radius
            attained = rr[i] * np.abs(v[i] - center)
            out[i] = InfinityMeanResult(
                minimizer=complex(center),
                objective=float(value),
                support_count=int(np.sum(attained >= value - 1e-9 * (1.0 + value))),
                status="converged",
            )
    elif live.size:
        samples, offsets, model, r = samples[live], offsets[live], model[live], rr[live]
        if kind == "conjugate":
            mod = mod[live]
            samples = young_conjugate(d).deriv_fn(mod) * samples / mod
        w = unit.weights
        if kind in ("center", "pair"):
            init = samples @ w / (2.0 * np.pi)
            ones = np.ones(n, dtype=complex)
            a_res = _mean_results(fit_model_coefficient(d, samples, w, ones, init, cfg), r)
        if kind != "center":
            init = (samples * offsets) @ w / (2.0 * np.pi * r**2)
            b_res = _mean_results(fit_model_coefficient(d, samples, w, model, init, cfg), r)
        for k, i in enumerate(live):
            if kind == "center":
                out[i] = a_res[k]
            elif kind == "pair":
                out[i] = PairMeanResult(
                    center=a_res[k],
                    slope=b_res[k],
                    radius=float(r[k]),
                    value=complex(a_res[k].minimizer + r[k] * b_res[k].minimizer),
                )
            else:
                out[i] = b_res[k]
    return tuple(tuple(out[k * z.size:(k + 1) * z.size]) for k in range(radii.size))


def _one_point(kind, f, z, r, d, node_count, cfg, seed=0):
    return _raise_first(circle_means(kind, f, [complex(z)], r, d, node_count, cfg, seed))[0]


def variational_circle_mean(f, z, r, d, node_count=64, cfg=None):
    """Derivative-detecting circle mean of ``f`` at ``z`` with radius ``r``.

    Minimizes ``integral of F(|f(zeta) - c conj(zeta - z)|)`` over the
    circle.  Initialized at the quadratic closed form, which is exact for
    the power density with p = 2.
    """
    return _one_point("variational", f, z, r, d, node_count, cfg)


def center_circle_mean(f, z, r, d, node_count=64, cfg=None):
    """Constant-model circle mean: the F-barycenter of f on the circle.

    Initialized at the plain circle average.
    """
    return _one_point("center", f, z, r, d, node_count, cfg)


def pair_mean(f, z, r, d, node_count=64, cfg=None):
    """Pair mean: center a plus slope b with value a + r b.

    The pair mean is defined as two single-model solves: a is the
    constant-model mean and b the derivative-detecting mean, each minimized
    on its own.  This is not the minimizer of the joint objective over
    (a, b): the two models decouple only for the quadratic density.
    """
    return _one_point("pair", f, z, r, d, node_count, cfg)


def conjugate_transformed_mean(g, z, r, d, node_count=64, cfg=None):
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
    return _one_point("conjugate", g, z, r, d, node_count, cfg)


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


def infinity_mean(f, z, r, node_count=64, seed=0):
    """Sup-norm circle mean: minimize ``max_j |f(zeta_j) - c conj(zeta_j - z)|``.

    Since |conj(zeta - z)| = r on the circle, dividing through reduces the
    problem to the Chebyshev center of the points ``f(zeta_j)(zeta_j - z)/r**2``,
    i.e. a smallest enclosing circle, solved exactly.  The fixed shuffle seed
    makes the run deterministic.
    """
    return _one_point("infinity", f, z, r, None, node_count, None, seed)


def affine_mean_identity(jet, r, c, d, node_count=64, radial_nodes=32):
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
