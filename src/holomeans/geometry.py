"""Circle and disk quadrature, complex jets and finite-difference derivatives.

Circles use the uniform trapezoidal rule, which is spectrally accurate for
periodic integrands.  Disks combine a Gauss-Legendre radial rule with the
uniform angular rule.  Jets collect the value and the two first Wirtinger
derivatives of a field at a base point:

    2 df/dz      = df/dx - i df/dy
    2 df/d(conj z) = df/dx + i df/dy
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NonFiniteSampleError, _raise_first

__all__ = [
    "CircleQuadrature",
    "DiskQuadrature",
    "Jet",
    "circle_rule",
    "disk_rule",
    "circle_integral",
    "sample_field",
    "wirtinger_jet",
    "affine_eval",
    "weighted_holomorphic_mean",
    "projection_pair",
]

DEFAULT_CIRCLE_NODES = 64
DEFAULT_RADIAL_NODES = 32
FD_STEP_SCALE = 1e-5


@dataclass(frozen=True)
class CircleQuadrature:
    """Nodes and weights for the boundary circle of D_r(center).

    Weights are uniform and sum to the circumference 2*pi*radius.
    """

    center: complex
    radius: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class DiskQuadrature:
    """Tensor nodes and weights integrating over the disk D_r(center).

    Weights sum to the area pi*radius**2; polynomial moments in
    (zeta - center) up to the radial rule's degree are exact.
    """

    center: complex
    radius: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class Jet:
    """First-order complex jet of a field at ``base``.

    ``value`` is f(base), ``dz`` the z-derivative, ``dzbar`` the conjugate
    derivative.
    """

    base: complex
    value: complex
    dz: complex
    dzbar: complex


def circle_rule(center, radius, node_count=DEFAULT_CIRCLE_NODES):
    """Uniform quadrature on the circle of given center and radius."""
    if radius <= 0.0 or not np.isfinite(radius):
        raise InvalidParameterError(f"circle radius must be positive, got {radius}")
    n = int(node_count)
    if n < 8:
        raise InvalidParameterError(f"need at least 8 circle nodes, got {n}")
    theta = 2.0 * np.pi * np.arange(n) / n
    nodes = center + radius * np.exp(1j * theta)
    weights = np.full(n, 2.0 * np.pi * radius / n)
    return CircleQuadrature(complex(center), float(radius), nodes, weights)


def disk_rule(center, radius, radial_nodes=DEFAULT_RADIAL_NODES,
              node_count=DEFAULT_CIRCLE_NODES):
    """Gauss-Legendre (radial) x uniform (angular) quadrature on a disk."""
    if radius <= 0.0 or not np.isfinite(radius):
        raise InvalidParameterError(f"disk radius must be positive, got {radius}")
    m = int(radial_nodes)
    n = int(node_count)
    if m < 4 or n < 8:
        raise InvalidParameterError(
            f"need at least 4 radial and 8 angular nodes, got ({m}, {n})"
        )
    x, v = np.polynomial.legendre.leggauss(m)
    rho = 0.5 * (x + 1.0) * radius
    rho_w = 0.5 * radius * v
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = np.exp(1j * theta)
    nodes = (center + rho[:, None] * ring[None, :]).ravel()
    weights = ((rho_w * rho)[:, None] * np.full(n, 2.0 * np.pi / n)[None, :]).ravel()
    return DiskQuadrature(complex(center), float(radius), nodes, weights)


def field_values(f, points):
    """Evaluate a vectorized field at ``points``, without checking the values.

    A result of another shape is broadcast to the shape of the points.
    """
    pts = np.asarray(points, dtype=complex)
    vals = np.asarray(f(pts), dtype=complex)
    if vals.shape != pts.shape:
        try:
            vals = np.broadcast_to(vals, pts.shape).astype(complex)
        except ValueError:
            raise InvalidParameterError(
                f"field returned shape {vals.shape} for points of shape {pts.shape}"
            ) from None
    return vals


def nonfinite_error(points, values):
    """The error for the first non-finite value, or None when all are finite."""
    bad = ~np.isfinite(values)
    if not np.any(bad):
        return None
    return NonFiniteSampleError(
        f"field returned a non-finite value near {points[bad][0]:.6g}"
    )


def sample_field(f, points):
    """Evaluate a vectorized field and fail loudly on non-finite samples."""
    pts = np.asarray(points, dtype=complex)
    vals = field_values(f, pts)
    _raise_first([nonfinite_error(pts, vals)])
    return vals


def circle_integral(q, values):
    """Integrate samples (or a callable) against a circle or disk rule."""
    if callable(values):
        values = sample_field(values, q.nodes)
    values = np.asarray(values)
    if values.shape[-1] != q.nodes.shape[0]:
        raise InvalidParameterError(
            "sample count does not match the quadrature rule"
        )
    if np.any(~np.isfinite(values)):
        idx = int(np.argwhere(~np.isfinite(np.atleast_1d(values)))[0][-1])
        raise NonFiniteSampleError(
            f"non-finite integrand at node {idx} ({q.nodes[idx]:.6g})"
        )
    return values @ q.weights


def _modulus(z):
    """|z| of every entry, rounded as Python's ``abs(complex)`` rounds it.

    This is libm's ``hypot``; numpy's complex ``abs`` can differ from it in
    the last bit, so scalar and array paths would drift apart.
    """
    z = np.asarray(z, dtype=complex)
    return np.hypot(z.real, z.imag)


def _wirtinger_jets(f, points):
    """First-order jets of ``f`` at every point from one field call.

    Samples all the points' central-difference stencils at once and returns
    a :class:`Jet` of 1-d arrays over the points, together with a list that
    holds, per point, ``None`` or the :class:`NonFiniteSampleError` of its
    stencil (whose jet entries are then not finite).
    """
    z = np.asarray(points, dtype=complex).ravel()
    h = FD_STEP_SCALE * (1.0 + _modulus(z))
    stencils = np.stack([z, z + h, z - h, z + 1j * h, z - 1j * h], axis=1)
    w = field_values(f, stencils) if z.size else np.zeros(stencils.shape, dtype=complex)
    bad = ~np.all(np.isfinite(w), axis=1)
    errors = [nonfinite_error(s, v) if b else None for s, v, b in zip(stencils, w, bad)]
    fx = (w[:, 1] - w[:, 2]) / (2.0 * h)
    fy = (w[:, 3] - w[:, 4]) / (2.0 * h)
    jets = Jet(base=z, value=w[:, 0], dz=0.5 * (fx - 1j * fy), dzbar=0.5 * (fx + 1j * fy))
    return jets, errors


def wirtinger_jet(f, z):
    """First-order jet of ``f`` at ``z`` by central finite differences.

    The step is ``FD_STEP_SCALE * (1 + |z|)``, that is ``1e-5 * (1 + |z|)``;
    the scheme is second order accurate in the step.  The one-point call of the batched jets.
    """
    jets, errors = _wirtinger_jets(f, [complex(z)])
    _raise_first(errors)
    return Jet(*(complex(part[0]) for part in (jets.base, jets.value, jets.dz, jets.dzbar)))


def affine_eval(jet, zeta):
    """Evaluate the affine field determined by a jet.

    Returns ``value + dz * (zeta - base) + dzbar * conj(zeta - base)``.
    """
    dz = np.asarray(zeta, dtype=complex) - jet.base
    out = jet.value + jet.dz * dz + jet.dzbar * np.conj(dz)
    if np.ndim(zeta) == 0:
        return complex(out)
    return out


def weighted_holomorphic_mean(f, z, r):
    """Disk average of ``f`` against the holomorphy-detecting weight.

    Computes ``(1 / area) * integral of f(zeta) (1 + (2 / r)(zeta - z)) dA``
    over the disk of radius ``r`` at ``z``.  The weight integrates to the
    area, and the mean reproduces f(z) exactly when f is holomorphic on the
    closed disk.
    """
    z = complex(z)
    q = disk_rule(z, r)
    vals = sample_field(f, q.nodes)
    kernel = 1.0 + (2.0 / q.radius) * (q.nodes - z)
    area = np.pi * q.radius**2
    return complex((vals * kernel) @ q.weights / area)


def projection_pair(f, z, r):
    """Least-squares coefficients of ``f`` on ``{1, conj(zeta - z)}`` over a disk.

    Returns ``(a, b)`` with ``a`` the plain disk average and ``b`` scaled so
    the weighted mean above equals ``a + r * b``.
    """
    z = complex(z)
    q = disk_rule(z, r)
    vals = sample_field(f, q.nodes)
    area = np.pi * q.radius**2
    a = vals @ q.weights / area
    b = 2.0 * ((vals * (q.nodes - z)) @ q.weights) / (area * q.radius**2)
    return complex(a), complex(b)
