"""Grid fixed-point iteration for the pair-mean dynamic programming principle.

The discrete problem: find a complex field on a square lattice that equals
its own pair mean at radius ``r`` at every interior node, with values held
fixed on a boundary strip wide enough to contain every sampling circle.
The solver damps the natural fixed-point map

    f  <-  (1 - theta) f + theta * (pair mean of f at radius r)

and stops when the sup update over computed nodes drops below a tolerance.
Circle samples between lattice nodes are obtained by bilinear interpolation.
For a quadratic density (``lambda_lo == lambda_hi == 1``) the pair mean is
the closed form that starts every other density's Newton runs, linear in the
samples.  Every unknown is a lattice node, so each circle node's bilinear
cell lies at the same lattice shift from every unknown: the corner shifts and
weights come once per solve from ``offsets / h``, each distinct shift (a tap)
gets the closed-form pair mean of its weights at the circle nodes
(``means._newton_starts``), and a sweep is the correlation of the lattice
with those taps.  It is computed by the convolution theorem, one forward and
one inverse FFT of the lattice padded to 2-3-5-smooth sizes (the taps'
spectrum is built once per solve), and cropped to the unknowns; the strip
keeps every tap of an unknown inside the lattice, so no circular wrap
reaches an unknown.  A sweep reads and writes the unknowns as 2-D views and
transforms the lattice unscaled, unless its data lie outside
``_UNSCALED_RANGE`` (2**-400 to 2**400) or are not finite; no bit depends on
it (:func:`_spectral_sum`).  At any other density a sweep runs the pair
mean's two batched Newton solves (``means._newton_fits``) over every node at
once, from those closed-form starts, on circle samples gathered through
:func:`interpolate`'s cell indices and bilinear weights.

A solve builds once what its sweeps share (:class:`_CircleStencil`): at the
quadratic density the taps' spectrum, a padded buffer that holds the strip's
data and the transforms' buffers, at any other density the gather table of
every unknown's circle nodes.  Each sweep still returns a new values array,
and its grid keeps the lattice that the first grid's checks passed.

Nodes where the field modulus falls below ``FIELD_FLOOR`` make the mean
ill-posed (the density may lose smoothness at zero): a sweep skips a node
whose value and whole sampling circle lie below it.  It also skips the
nodes of ``GridField.frozen``, which the caller holds fixed; no sweep adds
nodes to that mask.

At p = 2 the error claims hold on a square of side L only for L/r up to
about 10.  The fixed point u* amplifies the map's consistency error: ROADMAP
item 14 measured ``sup|u* - exp| / sup|T exp - exp|`` (u* by GMRES, h 0.005
to 0.02) at about 8.5 for L/r = 5, 86-96 for L/r = 10 (criterion 10(b)) and
1e5 or more for L/r = 20.  On ``exp`` data the error that
``demos/dpp_refinement.py`` finds flat in h is iteration error (item 13):
at h = 0.02, r = 0.1 the solve stops 2.3e-2 from u*, and u* is 1.0e-4 from
``exp``.  At p = 3 on the exact solution ``pharm-radial:3`` ([0.5, 1.5]^2,
damping 0.5, ``residual_tol`` 1e-5) the exact start ends at a sup error of
about 1e-2 for every (h, r) tried (1.3e-2 at h = 0.05, r = 0.1, after 262
sweeps), and the mean start at a second fixed point with sup error 0.87.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ConfigError, DivergenceError, InvalidParameterError, NonFiniteSampleError
from .geometry import circle_rule
from .means import _STATUS_FAILED, _newton_fits, _newton_starts
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
# dpp_solve raises DivergenceError when the sup residual of a sweep exceeds
# DIVERGENCE_FACTOR times the one DIVERGENCE_WINDOW sweeps earlier.
DIVERGENCE_WINDOW = 50
DIVERGENCE_FACTOR = 10.0
# write_checkpoint formats this many rows per string: one string per row is
# slow, and one for the whole lattice holds every row's text at once.
_CHECKPOINT_BLOCK = 256
# The quadratic sweep transforms its lattice unscaled while the largest
# modulus of the unknowns and of the strip data lie in this range.
_UNSCALED_RANGE = (2.0**-400, 2.0**400)


@dataclass(frozen=True, eq=False)
class GridField:
    """Complex field on a uniform square lattice with an outer data strip.

    ``x0..x1`` and ``y0..y1`` bound the rectangle of unknown nodes (closed:
    nodes on the rectangle edge are unknowns too); the lattice extends
    ``strip_cells`` extra layers beyond every side, and those outer nodes
    carry fixed data so that every sampling circle around an unknown stays
    inside the lattice.  ``frozen`` marks interior nodes that the caller
    holds fixed: no sweep updates them or adds to them, and a checkpoint
    writes them with flag 2.
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
        return _lattice_shape(self.x0, self.x1, self.y0, self.y1, self.h, self.strip_cells)

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


def _lattice_shape(x0, x1, y0, y1, h, strip_cells):
    """(nx, ny) node counts: the closed unknown rectangle plus the strip on each side."""
    s = 2 * strip_cells
    return int(round((x1 - x0) / h)) + 1 + s, int(round((y1 - y0) / h)) + 1 + s


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
    nx, ny = _lattice_shape(x0, x1, y0, y1, h, s)
    return GridField(*map(float, (x0, x1, y0, y1, h)), s, np.zeros((ny, nx), dtype=complex))


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


def _bilinear_table(grid, pts):
    """Flat cell index and the four corner weights of the bilinear interpolant
    at complex points, for :func:`_gather`.

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
    # one flat index per cell: far quicker to gather by than (row, column)
    return iy * nx + ix, ((1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy)


def _gather(values, table):
    """The bilinear interpolant of a (ny, nx) lattice at a :func:`_bilinear_table`'s points.

    Each weight product multiplies its corner value, as ``a * b * v`` does.
    """
    at, (w00, w10, w01, w11) = table
    v, nx = values.ravel(), values.shape[1]
    return w00 * v[at] + w10 * v[at + 1] + w01 * v[at + nx] + w11 * v[at + nx + 1]


def interpolate(grid, pts):
    """Bilinear interpolation of the grid field at complex points.

    Raises when a point is not finite or lies outside the lattice hull.
    """
    return _gather(grid.values, _bilinear_table(grid, pts))


@dataclass(frozen=True)
class DppConfig:
    """Settings of the damped fixed-point iteration.

    Every sampling circle has ``geometry.DEFAULT_CIRCLE_NODES`` nodes.  A
    sweep skips the nodes of ``GridField.frozen`` and, for that sweep only,
    the nodes whose value and whole sampling circle lie below
    ``FIELD_FLOOR``.
    """

    radius: float
    damping: float = 0.8
    max_iterations: int = 500
    residual_tol: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ConfigError(f"radius must be positive and finite, got {self.radius}")
        if not (0.0 < self.damping <= 1.0):
            raise ConfigError(f"damping must lie in (0, 1], got {self.damping}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if not self.residual_tol >= 0.0:
            raise ConfigError(f"residual_tol must be >= 0, got {self.residual_tol}")


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


class _Taps(NamedTuple):
    """The quadratic sweep's per-solve parts: the taps and the transform's buffers.

    ``pair`` is the closed-form pair mean of each tap's corner weights.
    ``spectrum`` is the 2-D FFT of the taps placed at ``(-dy, -dx)`` on the
    padded lattice, so that its product with the lattice's FFT is the tap
    sum at every node.  ``reached`` marks the nodes that some unknown's taps
    read; corners of weight 0 stay taps, so a non-finite value they touch
    still makes the sum non-finite.  ``padded`` holds the strip's reached
    data, written once, and each sweep writes the unknowns' reached values
    into it; every other node stays 0.  ``strip_top`` is the largest modulus
    of a part of that strip data (NaN or inf when one is not finite).
    """

    shifts: np.ndarray  # (taps, 2) lattice (row, column) shift of each tap
    pair: np.ndarray  # (taps,) complex tap coefficients
    spectrum: np.ndarray  # (Py, Px) FFT of the taps on the padded lattice
    reached: np.ndarray  # (ny, nx) nodes that the unknowns' taps read
    padded: np.ndarray  # (Py, Px) reached lattice data, 0 elsewhere
    strip_top: float
    work: tuple  # two (Py, Px) arrays and one (unknown rows, Px) array


class _CircleStencil(NamedTuple):
    """Everything a sweep needs that is fixed for the whole solve.

    :func:`dpp_solve` builds it once and :func:`dpp_step` once per call.
    At the quadratic density ``taps`` holds the spectral correlation's parts
    (:class:`_Taps`) and ``table`` is None.  At any other density ``taps``
    is None and ``table`` is the :func:`_bilinear_table` of every unknown's
    circle nodes, gathered from on each sweep.
    """

    offsets: np.ndarray  # (nodes,) circle offsets from the centre
    box: tuple  # (row, column) slices of the unknown rectangle
    taps: _Taps | None
    table: tuple | None


def _smooth_size(n):
    """Smallest 2-3-5-smooth integer >= ``n``: a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _top(a):
    """Largest modulus of a real or imaginary part of complex ``a``; NaN when
    one is NaN.  ``a``'s last axis must be contiguous."""
    parts = a.view(float)
    return max(parts.max(), -parts.min())


def _circle_stencil(grid, cfg, d):
    """The circle offsets and, for the density ``d``, the quadratic taps or
    the bilinear gather table (:class:`_CircleStencil`)."""
    q = circle_rule(0j, cfg.radius, geometry.DEFAULT_CIRCLE_NODES)
    nx, ny = grid.shape
    s = grid.strip_cells
    box = (slice(s, ny - s), slice(s, nx - s))
    if not d.lambda_lo == d.lambda_hi == 1.0:
        centres = grid.points()[box].ravel()
        return _CircleStencil(q.nodes, box, None,
                              _bilinear_table(grid, centres[:, None] + q.nodes))
    cells = q.nodes / grid.h
    ix, iy = np.floor(cells.real), np.floor(cells.imag)
    fx, fy = cells.real - ix, cells.imag - iy
    dx = ix.astype(int) + np.array([0, 1, 0, 1])[:, None]
    dy = iy.astype(int) + np.array([0, 0, 1, 1])[:, None]
    corner_weights = np.stack(
        [(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy]
    )
    # The distinct shifts in (row, column) order, through one integer key per
    # corner: a table of the keys in use and its running count, with no sort.
    lo = np.array([dy.min(), dx.min()])
    width = dx.max() - lo[1] + 1
    key = (dy - lo[0]) * width + (dx - lo[1])
    used = np.zeros(key.max() + 1, dtype=bool)
    used[key] = True
    shifts = np.column_stack(np.divmod(np.flatnonzero(used), width)) + lo
    tap = np.cumsum(used)[key] - 1
    weights = np.zeros((len(shifts), q.nodes.size))
    np.add.at(weights, (tap.ravel(), np.tile(np.arange(q.nodes.size), 4)), corner_weights.ravel())
    centre, slope = _newton_starts("pair", weights, q.nodes, cfg.radius)
    pair = centre + cfg.radius * slope
    kernel = np.zeros((_smooth_size(ny), _smooth_size(nx)), dtype=complex)
    kernel[-shifts[:, 0] % kernel.shape[0], -shifts[:, 1] % kernel.shape[1]] = pair
    reached = np.zeros((ny, nx), dtype=bool)
    for sy, sx in shifts.tolist():
        reached[s + sy : ny - s + sy, s + sx : nx - s + sx] = True
    padded = np.zeros_like(kernel)
    np.copyto(padded[:ny, :nx], grid.values, where=reached)
    padded[box] = 0.0
    work = (np.empty_like(kernel), np.empty_like(kernel), np.empty_like(kernel[box[0]]))
    taps = _Taps(shifts, pair, np.fft.fft2(kernel), reached, padded, _top(padded), work)
    return _CircleStencil(q.nodes, box, taps, None)


def _tap_windows(mask, stencil):
    """Per unknown, whether any of its taps reads a node of ``mask``."""
    i, j = stencil.box
    hit = np.zeros(mask[stencil.box].shape, dtype=bool)
    for sy, sx in stencil.taps.shifts.tolist():
        hit |= mask[i.start + sy : i.stop + sy, j.start + sx : j.stop + sx]
    return hit


def _spectral_sum(values, stencil, top):
    """Sum over the taps of coefficient times shifted window, per unknown.

    One correlation by FFT on the padded lattice, with the unreached nodes
    set to 0.  ``values`` must carry the strip data of the grid the stencil
    was built from: only the unknowns are written into the padded buffer.
    The buffer is transformed as it is when ``top``, the largest modulus of
    the unknowns (NaN to force the other path), and ``strip_top`` lie in
    ``_UNSCALED_RANGE``.  Otherwise the data are scaled by the power of two
    that brings their largest part into [0.5, 1), so the transforms cannot
    overflow, and the sums are scaled back.  No bit depends on which runs:
    a power-of-two scale is exact on every value that is normal before and
    after it, and in the range it is at most 2**401 either way, so only a
    part more than 2**600 below the largest could round otherwise, and
    rounding drops it from any sum that holds a part near the largest.  The result
    is a 2-D view of the stencil's work buffer, valid until the next sum on
    the stencil.  An unknown whose taps read a non-finite node gets a NaN
    sum; the caller raises the typed error.
    """
    taps, box = stencil.taps, stencil.box
    padded = taps.padded
    np.copyto(padded[box], values[box], where=taps.reached[box])
    scaled, turned, rows = taps.work
    e, hit, (lo, hi) = 0, None, _UNSCALED_RANGE
    if not (lo <= top <= hi and lo <= taps.strip_top <= hi):
        top = _top(padded[box])
        if not (math.isfinite(top) and math.isfinite(taps.strip_top)):
            # The non-finite nodes are zeroed on a fresh copy, so the buffer
            # keeps the strip's data for the next sweep.
            padded = np.zeros_like(padded)
            data = padded[: values.shape[0], : values.shape[1]]
            np.copyto(data, values, where=taps.reached)
            bad = ~np.isfinite(data)
            hit = _tap_windows(bad, stencil)
            data[bad] = 0.0
        e = math.frexp(max(taps.strip_top, top) if hit is None else _top(padded))[1]
        padded = np.ldexp(padded.view(float), -e, out=scaled.view(float)).view(complex)
    # One 1-D pass per axis, as fft2 makes them but without its overhead;
    # the inverse's last pass runs over the unknown rows only.  numpy loads
    # np.fft on first use, so importing holomeans does not pay for it.
    fft, (i, j) = np.fft, box
    fft.fft(padded, axis=1, out=turned)
    fft.fft(turned, axis=0, out=scaled)
    np.multiply(scaled, taps.spectrum, out=scaled)
    fft.ifft(scaled, axis=0, out=turned)
    fft.ifft(turned[i], axis=1, out=rows)
    sums = rows[:, j]
    if e:
        with np.errstate(over="ignore"):
            np.ldexp(sums.view(float), e, out=sums.view(float))
    if hit is not None:
        sums[hit] = np.nan
    return sums


def _circle_samples(grid, stencil, rows):
    """Bilinear samples on the circles of the unknowns selected by ``rows``
    (a slice, or a mask of the unknown box): gathered from the stencil's
    table where it has one, else by :func:`interpolate`.  Non-finite data
    gives non-finite samples silently, and the caller raises."""
    with np.errstate(invalid="ignore", over="ignore"):
        if stencil.table is None:
            centres = grid.points()[stencil.box][rows]
            return interpolate(grid, centres[:, None] + stencil.offsets)
        at, weights = stencil.table
        rows = rows if isinstance(rows, slice) else rows.ravel()
        return _gather(grid.values, (at[rows], tuple(w[rows] for w in weights)))


def _require_finite(samples):
    if not np.isfinite(samples).all():
        raise NonFiniteSampleError("interpolated circle samples are not finite")


def _with_values(grid, values):
    """``grid`` with new ``values`` of its shape, without re-running the
    checks of ``GridField``, which ``grid`` passed."""
    new = object.__new__(type(grid))
    new.__dict__.update(grid.__dict__, values=values)
    return new


def dpp_step(grid, d, cfg):
    """One damped sweep of the pair-mean map over all interior nodes.

    Returns the updated grid and diagnostics.  The sup residual is the
    largest undamped update ``|mean - value|`` over nodes actually computed.
    A node counts as degenerate only when its value and its whole sampling
    circle lie below ``FIELD_FLOOR``; such nodes are skipped for this sweep,
    as the nodes of ``grid.frozen`` are for every sweep.  A merely
    zero-valued node with nonzero circle samples still has a well-posed
    update and is computed.
    """
    _check_geometry(grid, cfg)
    return _sweep(grid, d, cfg, _circle_stencil(grid, cfg, d))


def _sweep(grid, d, cfg, stencil):
    """:func:`dpp_step` on a stencil that :func:`_circle_stencil` built for
    ``d`` from a grid with ``grid``'s lattice and strip data.

    The unknowns are read and written as 2-D views of the rectangle
    ``stencil.box``; ``rows`` selects the computed ones: a slice, so no
    copy, unless a node is frozen or held near zero.  One ``abs`` pass gives
    the near-zero test and the ``top`` of :func:`_spectral_sum`.
    """
    box, values = stencil.box, grid.values
    inner = values[box]
    modulus = np.abs(inner)
    rows, skipped, failed, top = slice(None), 0, 0, math.nan
    if grid.frozen is None and modulus.min() >= FIELD_FLOOR:
        top = modulus.max()
    else:
        held = np.zeros(inner.shape, bool) if grid.frozen is None else grid.frozen[box].copy()
        near_zero = (modulus < FIELD_FLOOR) & ~held
        if near_zero.any():
            circle = _circle_samples(grid, stencil, near_zero)
            held[near_zero] = np.max(np.abs(circle), axis=1) < FIELD_FLOOR
        skipped = int(np.count_nonzero(held))
        rows = ~held if skipped else rows
    old = inner[rows]
    if stencil.taps is not None:
        # s F''/F' == 1 makes F = c s^2 + const, whose minimizers are the
        # weighted projections themselves: one correlation with the taps.
        mean = _spectral_sum(values, stencil, top)[rows]
    else:
        samples = _circle_samples(grid, stencil, rows)
        _require_finite(samples)
        res_a, res_b = _newton_fits("pair", d, samples, stencil.offsets, cfg.radius)
        mean = (res_a["minimizer"] + cfg.radius * res_b["minimizer"]).reshape(old.shape)
        # A row whose fit failed keeps its old value.
        bad = (res_a["status"] == _STATUS_FAILED) | (res_b["status"] == _STATUS_FAILED)
        failed, bad = int(np.count_nonzero(bad)), bad.reshape(old.shape)
        if failed:
            mean = np.where(bad, old, mean)
    residual_sup = float(np.abs(mean - old).max()) if mean.size else 0.0
    if not math.isfinite(residual_sup):  # a non-finite mean makes it so
        _require_finite(mean)
    # (1 - theta) old + theta mean, straight into the new values when every
    # unknown is computed.
    new_values = values.copy()
    damped = new_values[box][rows]
    np.multiply(1.0 - cfg.damping, old, out=damped)
    np.add(damped, np.multiply(cfg.damping, mean, out=mean), out=damped)
    if failed:
        np.copyto(damped, old, where=bad)
    if skipped:
        new_values[box][rows] = damped
    return _with_values(grid, new_values), StepDiagnostics(
        residual_sup, int(inner.size - skipped - failed), skipped + failed)


def dpp_solve(grid, d, cfg, callback=None):
    """Damped fixed-point iteration until the sup update is small.

    The circle stencil is built once; every sweep reuses it.  Raises
    :class:`DivergenceError` (with the residual history attached)
    when the residual grows by more than ``DIVERGENCE_FACTOR`` over
    ``DIVERGENCE_WINDOW`` sweeps, instead of looping to the iteration cap.
    ``callback(iteration, grid, diag)`` runs after every sweep when given.
    It must not edit the ``values`` of the grid it receives: at the
    quadratic density the strip data are read once per solve, into the
    stencil's padded buffer, so an edit to the strip is ignored there,
    while at any other density the next sweep reads it.
    """
    _check_geometry(grid, cfg)
    stencil = _circle_stencil(grid, cfg, d)
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
        w = DIVERGENCE_WINDOW
        if len(history) > w and history[-1] > DIVERGENCE_FACTOR * history[-1 - w]:
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
    ``extra_header`` lines are prepended the same way.  The rows are the
    bytes ``np.savetxt`` writes with ``%.17g`` and ``%d``, formatted
    ``_CHECKPOINT_BLOCK`` rows per string.
    """
    flags = grid.interior_mask().astype(int)
    if grid.frozen is not None:
        flags[grid.frozen] = 2
    pts = grid.points()
    table = np.column_stack(
        [a.ravel() for a in (pts.real, pts.imag, grid.values.real, grid.values.imag, flags)]
    )
    row = "%.17g,%.17g,%.17g,%.17g,%d\n"
    with open(path, "w", newline="") as fh:
        for line in extra_header:
            fh.write(f"# {line}\n")
        fh.write(
            f"# lattice x0={grid.x0:.17g} x1={grid.x1:.17g} "
            f"y0={grid.y0:.17g} y1={grid.y1:.17g} h={grid.h:.17g} "
            f"strip={grid.strip_cells}\n"
        )
        fh.write("x,y,re,im,flag\n")
        for start in range(0, len(table), _CHECKPOINT_BLOCK):
            block = table[start : start + _CHECKPOINT_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_checkpoint(path):
    """Rebuild a grid from a checkpoint written by :func:`write_checkpoint`.

    The rows after the ``x,y,re,im,flag`` line are parsed from the open file.
    """
    meta = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line == "x,y,re,im,flag":
                break
            if line.startswith("# lattice"):
                for token in line[len("# lattice") :].split():
                    key, _, val = token.partition("=")
                    try:
                        meta[key] = float(val) if key != "strip" else int(val)
                    except ValueError:
                        raise InvalidParameterError(
                            f"checkpoint {path} has a malformed lattice value {token!r}"
                        ) from None
        else:
            raise InvalidParameterError(f"checkpoint {path} has no x,y,re,im,flag line")
        try:
            with warnings.catch_warnings():
                # a checkpoint without rows fails the row count below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", usecols=(2, 3, 4), ndmin=2)
        except ValueError as exc:
            raise InvalidParameterError(f"checkpoint {path} has a malformed row: {exc}") from exc
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
    nx, ny = _lattice_shape(meta["x0"], meta["x1"], meta["y0"], meta["y1"], h, s)
    if len(data) != nx * ny:
        raise InvalidParameterError(
            f"checkpoint {path} has {len(data)} rows, lattice needs {nx * ny}"
        )
    values = np.empty(nx * ny, dtype=complex)
    values.real, values.imag = data[:, 0], data[:, 1]
    frozen = (data[:, 2] == 2).reshape(ny, nx)
    return GridField(*(meta[k] for k in ("x0", "x1", "y0", "y1", "h")), s,
                     values.reshape(ny, nx), frozen if frozen.any() else None)
