"""Grid fixed-point iteration for the pair-mean dynamic programming principle.

The discrete problem: find a complex field on a square lattice that equals
its own pair mean at radius ``r`` at every interior node, with values held
fixed on a boundary strip wide enough to contain every sampling circle.
The solver damps the natural fixed-point map

    f  <-  (1 - theta) f + theta * (pair mean of f at radius r)

and stops when the sup update over computed nodes drops below a tolerance.
Circle samples between lattice nodes are obtained by bilinear interpolation.
Every unknown is a lattice node, so each circle node's bilinear cell lies
at the same lattice shift from every unknown: the four corner shifts and
weights of each circle node come once per solve from ``offsets / h``.  The
centre and slope projections of the samples are summed over equal shifts
into one coefficient per distinct shift (a tap), and a sweep gets them as a
sum over the taps of coefficient times the shifted window of lattice
values.  For a quadratic density (``lambda_lo == lambda_hi == 1``) the pair
mean is that closed-form weighted projection, with no Newton run; otherwise
the projections start a pair of batched one-dimensional Newton solves over
every node at once, on circle samples gathered through the same shifts.

Nodes where the field modulus falls below ``FIELD_FLOOR`` make the mean
ill-posed (the density may lose smoothness at zero); the ``zero_policy``
either skips them for the current sweep or freezes them permanently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .density import Density
from .errors import (
    ConfigError,
    DivergenceError,
    InvalidParameterError,
    NonFiniteSampleError,
)
from .geometry import circle_rule
from .means import SolverConfig, fit_model_coefficient
from .pdesystem import FIELD_FLOOR

__all__ = [
    "GridField",
    "DppConfig",
    "StepDiagnostics",
    "DppResult",
    "make_grid",
    "grid_from_function",
    "with_interior",
    "interpolate",
    "dpp_step",
    "dpp_solve",
    "write_checkpoint",
    "read_checkpoint",
]

GRID_SNAP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GridField:
    """Complex field on a uniform square lattice with an outer data strip.

    ``x0..x1`` and ``y0..y1`` bound the rectangle of unknown nodes (closed:
    nodes on the rectangle edge are unknowns too); the lattice extends
    ``strip_cells`` extra layers beyond every side, and those outer nodes
    carry fixed data so that every sampling circle around an unknown stays
    inside the lattice.  ``frozen`` marks nodes permanently excluded from
    updates under the freeze policy.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    h: float
    strip_cells: int
    values: np.ndarray
    frozen: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise InvalidParameterError(
                f"lattice step must be positive and finite, got {self.h}"
            )
        for lo, hi, name in ((self.x0, self.x1, "x"), (self.y0, self.y1, "y")):
            span = (hi - lo) / self.h
            if not (hi > lo and math.isfinite(span)):
                raise InvalidParameterError(
                    f"{name} range must be finite and non-empty: [{lo}, {hi}]"
                )
            if abs(span - round(span)) > GRID_SNAP_TOL * max(1.0, abs(span)):
                raise InvalidParameterError(
                    f"{name} range [{lo}, {hi}] is not a whole number of steps "
                    f"of {self.h}"
                )
        if self.strip_cells < 1:
            raise InvalidParameterError(
                f"strip must be at least one cell, got {self.strip_cells}"
            )
        nx, ny = self.shape
        if self.values.shape != (ny, nx):
            raise InvalidParameterError(
                f"values shape {self.values.shape} does not match lattice "
                f"({ny}, {nx})"
            )

    @property
    def shape(self):
        s = 2 * self.strip_cells
        nx = int(round((self.x1 - self.x0) / self.h)) + 1 + s
        ny = int(round((self.y1 - self.y0) / self.h)) + 1 + s
        return nx, ny

    @property
    def xs(self):
        nx, _ = self.shape
        return (self.x0 - self.strip_cells * self.h) + self.h * np.arange(nx)

    @property
    def ys(self):
        _, ny = self.shape
        return (self.y0 - self.strip_cells * self.h) + self.h * np.arange(ny)

    def points(self):
        """All lattice nodes as a complex (ny, nx) array."""
        return self.xs[None, :] + 1j * self.ys[:, None]

    def interior_mask(self):
        """Boolean (ny, nx) mask of unknown nodes (the closed rectangle)."""
        nx, ny = self.shape
        mask = np.zeros((ny, nx), dtype=bool)
        s = self.strip_cells
        mask[s : ny - s, s : nx - s] = True
        return mask


def strip_cells_for(radius, h):
    """Lattice layers needed so circles of ``radius`` stay inside the data."""
    return int(math.ceil(radius / h)) + 1


def make_grid(x0, x1, y0, y1, h, radius):
    """Zero-valued grid over ``[x0,x1] x [y0,y1]`` sized for the radius.

    The unknown rectangle is the one given; the returned lattice carries the
    extra outer layers needed so circles of ``radius`` around any unknown
    node stay inside.
    """
    if not 0.0 < h < math.inf:
        raise InvalidParameterError(f"lattice step must be positive and finite, got {h}")
    if not 0.0 < radius < math.inf:
        raise InvalidParameterError(f"radius must be positive and finite, got {radius}")
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise InvalidParameterError(
            f"lattice bounds must be finite: [{x0}, {x1}] x [{y0}, {y1}]"
        )
    s = strip_cells_for(radius, h)
    nx = int(round((x1 - x0) / h)) + 1 + 2 * s
    ny = int(round((y1 - y0) / h)) + 1 + 2 * s
    g = GridField(
        x0=float(x0),
        x1=float(x1),
        y0=float(y0),
        y1=float(y1),
        h=float(h),
        strip_cells=s,
        values=np.zeros((ny, nx), dtype=complex),
    )
    return g


def grid_from_function(x0, x1, y0, y1, h, radius, f):
    """Grid whose every node carries the sampled value of ``f``."""
    g = make_grid(x0, x1, y0, y1, h, radius)
    return replace(g, values=np.asarray(f(g.points()), dtype=complex))


def with_interior(grid, filler):
    """Copy of the grid with interior values replaced.

    ``filler`` is a constant or a callable of the complex nodes; strip
    values are kept, so this is the standard way to build an initial guess
    that honours the boundary data.
    """
    values = grid.values.copy()
    mask = grid.interior_mask()
    if callable(filler):
        values[mask] = np.asarray(filler(grid.points()), dtype=complex)[mask]
    else:
        values[mask] = complex(filler)
    return replace(grid, values=values)


def interpolate(grid, pts):
    """Bilinear interpolation of the grid field at complex points.

    Raises when a point is not finite or lies outside the lattice hull.
    """
    pts = np.asarray(pts, dtype=complex)
    nx, ny = grid.shape
    ox = grid.x0 - grid.strip_cells * grid.h
    oy = grid.y0 - grid.strip_cells * grid.h
    gx = (pts.real - ox) / grid.h
    gy = (pts.imag - oy) / grid.h
    outside = np.maximum(np.maximum(-gx, gx - (nx - 1)), np.maximum(-gy, gy - (ny - 1)))
    if not np.all(outside <= GRID_SNAP_TOL):
        bad = pts.ravel()[int(np.argmax(outside.ravel()))]
        raise InvalidParameterError(f"point {bad} lies outside the lattice hull")
    ix = np.clip(np.floor(gx).astype(int), 0, nx - 2)
    iy = np.clip(np.floor(gy).astype(int), 0, ny - 2)
    fx = gx - ix
    fy = gy - iy
    v = grid.values
    return (
        (1.0 - fx) * (1.0 - fy) * v[iy, ix]
        + fx * (1.0 - fy) * v[iy, ix + 1]
        + (1.0 - fx) * fy * v[iy + 1, ix]
        + fx * fy * v[iy + 1, ix + 1]
    )


@dataclass(frozen=True)
class DppConfig:
    """Settings of the damped fixed-point iteration.

    ``zero_policy`` skips or freezes the nodes whose value and whole
    sampling circle lie below ``FIELD_FLOOR``.
    """

    radius: float
    damping: float = 0.8
    max_iterations: int = 500
    residual_tol: float = 1e-3
    node_count: int = 64
    zero_policy: str = "skip"
    divergence_window: int = 50
    divergence_factor: float = 10.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ConfigError(f"radius must be positive and finite, got {self.radius}")
        if not (0.0 < self.damping <= 1.0):
            raise ConfigError(f"damping must lie in (0, 1], got {self.damping}")
        if self.node_count < 8:
            raise ConfigError(f"need at least 8 circle nodes, got {self.node_count}")
        if self.zero_policy not in ("skip", "freeze"):
            raise ConfigError(
                f"zero_policy must be 'skip' or 'freeze', got {self.zero_policy!r}"
            )
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if not self.residual_tol >= 0.0:
            raise ConfigError(f"residual_tol must be >= 0, got {self.residual_tol}")
        if self.divergence_window < 1:
            raise ConfigError(
                f"divergence_window must be at least 1 sweep, got {self.divergence_window}"
            )
        if not 1.0 <= self.divergence_factor < math.inf:
            raise ConfigError(
                f"divergence_factor must be finite and at least 1, got {self.divergence_factor}"
            )


@dataclass(frozen=True)
class StepDiagnostics:
    residual_sup: float
    updated_count: int
    skipped_count: int


@dataclass(frozen=True)
class DppResult:
    field: GridField
    residual_history: tuple
    iterations: int
    converged: bool

    @property
    def contraction(self):
        """Estimated contraction factor ``q`` of the damped map.

        The median ratio of consecutive sup residuals; nan with fewer than
        two sweeps or when a zero residual is followed by another (0/0).
        It presumes a sup-norm contraction, which the p = 2 map is not: the
        mode ``exp(-i y / r)`` grows by a factor 1.20 per undamped sweep, and
        on ``conj`` data the sup residual rises from 0.2 to 0.32 before the
        solve converges, so the ratio of one stretch of sweeps need not bound
        the others.
        """
        h = np.asarray(self.residual_history, dtype=float)
        if h.size < 2:
            return math.nan
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.median(h[1:] / h[:-1]))

    @property
    def error_bound(self):
        """A-posteriori estimate ``r q / (1 - q)`` of the distance to the fixed point.

        ``r`` is the last sup residual and ``q`` the :attr:`contraction`.  For
        a map contracting with factor ``q`` the final field lies within
        ``q / (1 - q)`` times its last update, which is ``damping * r <= r``,
        of the fixed point.  inf unless ``q < 1`` (so also with fewer than
        two sweeps).  Like :attr:`contraction` it presumes a sup-norm
        contraction, which the p = 2 map is not.  It bounds the distance to
        the fixed point the solve reached, not to the solution of the
        problem: at p = 3 a solve from the mean start read 3.95e-3 here at a
        fixed point whose sup error to the exact solution was 0.87.
        """
        q = self.contraction
        if not q < 1.0:
            return math.inf
        return self.residual_history[-1] * q / (1.0 - q)


def _check_geometry(grid, cfg):
    if cfg.radius < 2.0 * grid.h:
        raise ConfigError(
            f"radius {cfg.radius} must be at least two lattice steps "
            f"(h = {grid.h}); the circle would see too few cells"
        )
    if grid.strip_cells < strip_cells_for(cfg.radius, grid.h):
        raise ConfigError(
            f"strip of {grid.strip_cells} cells cannot contain circles of "
            f"radius {cfg.radius} at step {grid.h}; need "
            f"{strip_cells_for(cfg.radius, grid.h)}"
        )


class _CircleStencil(NamedTuple):
    """Everything a sweep needs that is fixed for the whole solve.

    Corners of weight 0 stay taps, so a non-finite value they touch still
    makes the tap sum non-finite.
    """

    offsets: np.ndarray  # (nodes,) circle offsets from the centre
    weights: np.ndarray  # (nodes,) arc-length quadrature weights
    interior: np.ndarray  # (ny, nx) mask of the unknown nodes
    base: np.ndarray  # (rows,) flat lattice index of each unknown
    corners: np.ndarray  # (4, nodes) flat lattice shift of each cell corner
    corner_weights: np.ndarray  # (4, nodes) bilinear weight of each corner
    windows: tuple  # (taps,) index pairs of the shifted unknown rectangle
    centre: np.ndarray  # (taps,) real coefficients of the centre projection
    slope: np.ndarray  # (taps,) complex coefficients of the slope projection


def _circle_stencil(grid, cfg):
    """Corner shifts, weights and projection taps of the circle rule."""
    q = circle_rule(0j, cfg.radius, cfg.node_count)
    nx, ny = grid.shape
    s = grid.strip_cells
    cells = q.nodes / grid.h
    ix, iy = np.floor(cells.real), np.floor(cells.imag)
    fx, fy = cells.real - ix, cells.imag - iy
    dx = ix.astype(int) + np.array([0, 1, 0, 1])[:, None]
    dy = iy.astype(int) + np.array([0, 0, 1, 1])[:, None]
    corner_weights = np.stack(
        [(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy]
    )
    shifts, tap = np.unique(
        np.column_stack([dy.ravel(), dx.ravel()]), axis=0, return_inverse=True
    )
    tap, taps = tap.ravel(), len(shifts)
    centre = np.bincount(tap, corner_weights.ravel(), taps) / cfg.node_count
    slope_terms = (corner_weights * q.nodes).ravel()
    slope = (
        np.bincount(tap, slope_terms.real, taps) + 1j * np.bincount(tap, slope_terms.imag, taps)
    ) * (q.weights[0] / (2.0 * np.pi * cfg.radius**3))
    windows = tuple(
        (slice(s + sy, ny - s + sy), slice(s + sx, nx - s + sx)) for sy, sx in shifts.tolist()
    )
    interior = grid.interior_mask()
    return _CircleStencil(
        q.nodes, q.weights, interior, np.flatnonzero(interior), dy * nx + dx,
        corner_weights, windows, centre, slope,
    )


def _tap_sum(values, stencil, coefficients):
    """Sum over the taps of coefficient times shifted window, per unknown.

    The entries follow ``values[stencil.interior]``.
    """
    total = 0.0
    for window, c in zip(stencil.windows, coefficients.tolist()):
        total = total + c * values[window]
    return total.ravel()


def _circle_samples(values, stencil, rows):
    """Interpolated circle samples of the unknowns selected by ``rows``."""
    v = values.ravel()
    at = stencil.base[rows][:, None]
    (w0, w1, w2, w3), (c0, c1, c2, c3) = stencil.corner_weights, stencil.corners
    return w0 * v[at + c0] + w1 * v[at + c1] + w2 * v[at + c2] + w3 * v[at + c3]


def _require_finite(samples):
    if not np.all(np.isfinite(samples)):
        raise NonFiniteSampleError("interpolated circle samples are not finite")


def dpp_step(grid, d, cfg):
    """One damped sweep of the pair-mean map over all interior nodes.

    Returns the updated grid and diagnostics.  The sup residual is the
    largest undamped update ``|mean - value|`` over nodes actually computed.
    A node counts as degenerate only when its value and its whole sampling
    circle lie below ``FIELD_FLOOR``; such nodes are skipped or frozen per
    the policy and do not contribute.  A merely zero-valued node with
    nonzero circle samples still has a well-posed update and is computed.
    """
    _check_geometry(grid, cfg)
    return _sweep(grid, d, cfg, _circle_stencil(grid, cfg))


def _sweep(grid, d, cfg, stencil):
    """:func:`dpp_step` on a stencil built by :func:`_circle_stencil`."""
    interior = stencil.interior
    frozen = grid.frozen if grid.frozen is not None else np.zeros_like(interior)
    near_zero = (np.abs(grid.values) < FIELD_FLOOR) & interior & ~frozen
    dead = np.zeros_like(near_zero)
    if np.any(near_zero):
        circle = _circle_samples(grid.values, stencil, near_zero[interior])
        dead[near_zero] = np.max(np.abs(circle), axis=1) < FIELD_FLOOR
    active = interior & ~frozen & ~dead
    skipped = int(np.count_nonzero(interior & ~active))

    rows = slice(None) if skipped == 0 else active[interior]
    values = grid.values
    if d.lambda_lo == d.lambda_hi == 1.0:
        # s F''/F' == 1 makes F = c s^2 + const, whose minimizers are the
        # weighted projections themselves: one pass over the taps.
        mean = _tap_sum(values, stencil, stencil.centre + cfg.radius * stencil.slope)[rows]
        _require_finite(mean)
        bad = np.zeros(mean.shape, dtype=bool)
    else:
        samples = _circle_samples(values, stencil, rows)
        _require_finite(samples)
        init_a = _tap_sum(values, stencil, stencil.centre)[rows]
        init_b = _tap_sum(values, stencil, stencil.slope)[rows]
        offsets, weights = stencil.offsets, stencil.weights
        ones = np.ones_like(offsets)
        res_a = fit_model_coefficient(d, samples, weights, ones, init_a, cfg.solver)
        res_b = fit_model_coefficient(
            d, samples, weights, np.conj(offsets), init_b, cfg.solver
        )
        mean = res_a["minimizer"] + cfg.radius * res_b["minimizer"]
        bad = (res_a["status"] == 3) | (res_b["status"] == 3)
    old = grid.values[active]
    if np.any(bad):
        mean = np.where(bad, old, mean)
    residual_sup = float(np.max(np.abs(mean - old))) if mean.size else 0.0
    new_values = grid.values.copy()
    new_values[active] = np.where(bad, old, (1.0 - cfg.damping) * old + cfg.damping * mean)

    out = replace(
        grid,
        values=new_values,
        frozen=frozen | dead if cfg.zero_policy == "freeze" else grid.frozen,
    )
    return out, StepDiagnostics(
        residual_sup=residual_sup,
        updated_count=int(np.count_nonzero(active) - np.count_nonzero(bad)),
        skipped_count=skipped + int(np.count_nonzero(bad)),
    )


def dpp_solve(grid, d, cfg, callback=None):
    """Damped fixed-point iteration until the sup update is small.

    The circle stencil is built once; every sweep reuses it.  Raises
    :class:`DivergenceError` (with the residual history attached)
    when the residual grows by ``divergence_factor`` over a window, instead
    of looping to the iteration cap.  ``callback(iteration, grid, diag)``
    runs after every sweep when given.
    """
    _check_geometry(grid, cfg)
    stencil = _circle_stencil(grid, cfg)
    history = []
    current = grid
    converged = False
    for it in range(1, cfg.max_iterations + 1):
        current, diag = _sweep(current, d, cfg, stencil)
        history.append(diag.residual_sup)
        if callback is not None:
            callback(it, current, diag)
        if diag.residual_sup <= cfg.residual_tol:
            converged = True
            break
        w = cfg.divergence_window
        if len(history) > w and history[-1] > cfg.divergence_factor * history[-1 - w]:
            raise DivergenceError(
                f"sup residual grew from {history[-1 - w]:.3e} to "
                f"{history[-1]:.3e} over {w} sweeps",
                history=tuple(history),
            )
    return DppResult(
        field=current,
        residual_history=tuple(history),
        iterations=len(history),
        converged=converged,
    )


def write_checkpoint(grid, path, extra_header=()):
    """Write the lattice to CSV with x, y, re, im, flag columns.

    Flags: 0 strip data, 1 interior unknown, 2 frozen.  Lattice metadata
    rides along in '#' comment lines so the file round-trips;
    ``extra_header`` lines are prepended the same way.
    """
    flags = grid.interior_mask().astype(int)
    if grid.frozen is not None:
        flags[grid.frozen] = 2
    pts = grid.points()
    table = np.column_stack(
        [a.ravel() for a in (pts.real, pts.imag, grid.values.real, grid.values.imag, flags)]
    )
    with open(path, "w", newline="") as fh:
        for line in extra_header:
            fh.write(f"# {line}\n")
        fh.write(
            f"# lattice x0={grid.x0:.17g} x1={grid.x1:.17g} "
            f"y0={grid.y0:.17g} y1={grid.y1:.17g} h={grid.h:.17g} "
            f"strip={grid.strip_cells}\n"
        )
        fh.write("x,y,re,im,flag\n")
        np.savetxt(fh, table, fmt=["%.17g"] * 4 + ["%d"], delimiter=",")


def read_checkpoint(path):
    """Rebuild a grid from a checkpoint written by :func:`write_checkpoint`."""
    meta = {}
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        if line.startswith("# lattice"):
            for token in line[len("# lattice") :].split():
                key, _, val = token.partition("=")
                try:
                    meta[key] = float(val) if key != "strip" else int(val)
                except ValueError:
                    raise InvalidParameterError(
                        f"checkpoint {path} has a malformed lattice value {token!r}"
                    ) from None
    rows = [
        line
        for line in lines
        if line and not line.startswith("#") and line != "x,y,re,im,flag"
    ]
    required = {"x0", "x1", "y0", "y1", "h", "strip"}
    if not required.issubset(meta):
        raise InvalidParameterError(
            f"checkpoint {path} is missing lattice metadata {sorted(required - set(meta))}"
        )
    s, h = meta["strip"], meta["h"]
    if not 0.0 < h < math.inf:
        raise InvalidParameterError(f"checkpoint {path} needs a positive finite step, got h={h}")
    spans = ((meta["x1"] - meta["x0"]) / h, (meta["y1"] - meta["y0"]) / h)
    if not all(map(math.isfinite, spans)):
        raise InvalidParameterError(f"checkpoint {path} needs finite lattice bounds")
    nx = int(round(spans[0])) + 1 + 2 * s
    ny = int(round(spans[1])) + 1 + 2 * s
    if len(rows) != nx * ny:
        raise InvalidParameterError(
            f"checkpoint {path} has {len(rows)} rows, lattice needs {nx * ny}"
        )
    try:
        data = np.loadtxt(rows, delimiter=",", usecols=(2, 3, 4), ndmin=2)
    except ValueError as exc:
        raise InvalidParameterError(f"checkpoint {path} has a malformed row: {exc}") from exc
    values = np.empty(nx * ny, dtype=complex)
    values.real, values.imag = data[:, 0], data[:, 1]
    frozen = (data[:, 2] == 2).reshape(ny, nx)
    return GridField(
        x0=meta["x0"],
        x1=meta["x1"],
        y0=meta["y0"],
        y1=meta["y1"],
        h=meta["h"],
        strip_cells=s,
        values=values.reshape(ny, nx),
        frozen=frozen if frozen.any() else None,
    )
