"""Nonlinear Cauchy-Riemann systems, dilatation bounds, and gradient fields.

A convex radial density couples the two Wirtinger derivatives of a complex
field through the first-order system

    df/d(conj z) + mu(|f|) * (f / conj f) * conj(df/dz) = 0,

where ``mu(s) = (lam(s) - 1) / (lam(s) + 1)`` and ``lam`` is the convexity
ratio of the density.  Solutions are quasiregular: the size of the conjugate
derivative is controlled by a dilatation bound depending only on the
convexity range.

The module also covers gradient fields of real potentials: ``f = du/dx -
i du/dy`` turns the p-Laplace equation for ``u`` into a special case of the
system above, and a modulus rescaling of ``f`` turns it into a linear
Beltrami equation with constant coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import _per_point, lambda_of
from .errors import InvalidParameterError, ZeroFieldError, _raise_first
from .geometry import Jet, _modulus, wirtinger_jet

__all__ = [
    "DilatationReport",
    "RealJet2",
    "BeltramiReport",
    "mu_of",
    "cr_residual",
    "dilatation_check",
    "gradient_jet",
    "p_harmonic_gradient_residual",
    "beltrami_residual",
]

# Field-modulus floor below which zero-sensitive operations refuse to run.
FIELD_FLOOR = 1e-8
# Absolute slack of the dilatation bound, for finite-difference jets.
DILATATION_SLACK = 1e-6


def mu_of(d, s):
    """Asymmetry coefficient mu(s) = (lam(s) - 1) / (lam(s) + 1).

    Vanishes exactly where the density is locally quadratic; ranges over
    (-1, 1) for any admissible convexity band.
    """
    lam = lambda_of(d, s)
    return (lam - 1.0) / (lam + 1.0)


def _cr_residuals(jets, d):
    """:func:`cr_residual` over a :class:`Jet` of 1-d arrays, in one pass.

    Returns ``(residuals, errors)``: a point whose jet value falls below
    ``FIELD_FLOOR``, or whose coefficient cannot be evaluated, gets NaN and
    its error in its slot; every other error slot is ``None``.
    """
    w = np.asarray(jets.value, dtype=complex)
    mod = _modulus(w)
    low = mod < FIELD_FLOOR
    errors = [
        ZeroFieldError(
            f"system residual needs |f(z)| >= {FIELD_FLOOR:g}, "
            f"got {m:.3e} at {complex(z)}"
        ) if lo else None
        for z, m, lo in zip(np.asarray(jets.base).ravel(), mod, low)
    ]
    keep = np.flatnonzero(~low)
    mu, mu_errors = _per_point(lambda s: mu_of(d, s), mod[keep])
    for i, error in zip(keep, mu_errors):
        errors[i] = error
    residuals = np.full(w.shape, complex(np.nan, np.nan))
    wk = w[keep]
    residuals[keep] = jets.dzbar[keep] + mu * (wk / np.conj(wk)) * np.conj(jets.dz[keep])
    return residuals, errors


def cr_residual(jet, d):
    """Residual of the nonlinear Cauchy-Riemann system on a first-order jet.

    Zero exactly when the jet satisfies the system at its base point.  The
    coefficient needs the field modulus, so a vanishing jet value is refused.
    The one-jet call of the array form.
    """
    parts = (jet.base, jet.value, jet.dz, jet.dzbar)
    residuals, errors = _cr_residuals(Jet(*(np.array([complex(p)]) for p in parts)), d)
    _raise_first(errors)
    return complex(residuals[0])


@dataclass(frozen=True)
class DilatationReport:
    """Quasiregularity check of one jet against a density's bounds."""

    ratio: float
    bound: float
    distortion: float
    ok: bool
    defined: bool


def dilatation_check(jet, d):
    """Check |df/d(conj z)| <= bound * |df/dz| for the density's mu bound.

    The bound is the largest possible |mu| over the declared convexity band;
    ``distortion`` is the quasiregularity constant K = max(lam_hi, 1 / lam_lo).
    ``defined`` is False when both derivatives vanish (the ratio carries no
    information); the check then passes vacuously.  The bound holds up to
    ``DILATATION_SLACK``.
    """
    mu_bound = max(
        (d.lambda_hi - 1.0) / (d.lambda_hi + 1.0),
        (1.0 - d.lambda_lo) / (1.0 + d.lambda_lo),
    )
    distortion = max(d.lambda_hi, 1.0 / d.lambda_lo)
    s = abs(complex(jet.dz))
    t = abs(complex(jet.dzbar))
    if s == 0.0 and t == 0.0:
        return DilatationReport(
            ratio=math.nan,
            bound=mu_bound,
            distortion=distortion,
            ok=True,
            defined=False,
        )
    ratio = t / s if s > 0.0 else math.inf
    ok = t <= mu_bound * s + DILATATION_SLACK
    return DilatationReport(
        ratio=float(ratio),
        bound=float(mu_bound),
        distortion=float(distortion),
        ok=bool(ok),
        defined=True,
    )


@dataclass(frozen=True)
class RealJet2:
    """Second-order jet of a real potential at a point of the plane."""

    base: complex
    value: float
    dx: float
    dy: float
    dxx: float
    dxy: float
    dyy: float


def gradient_jet(u2):
    """First-order jet of the gradient field f = du/dx - i du/dy.

    The Wirtinger derivatives of f are assembled from the second-order
    derivatives of the potential:

        df/dz        = (dxx - dyy) / 2 - i dxy
        df/d(conj z) = (dxx + dyy) / 2
    """
    return Jet(
        base=complex(u2.base),
        value=complex(u2.dx, -u2.dy),
        dz=complex(0.5 * (u2.dxx - u2.dyy), -u2.dxy),
        dzbar=complex(0.5 * (u2.dxx + u2.dyy), 0.0),
    )


def p_harmonic_gradient_residual(u2, p):
    """Residual of the gradient-field system for the p-Laplace equation.

    For the gradient field f of a p-harmonic potential,

        df/d(conj z) = (2 - p) / (2 p) * [ (conj f / f) df/dz
                                           + (f / conj f) conj(df/dz) ],

    which is the nonlinear Cauchy-Riemann system of the power density after
    symmetrisation; the returned complex number is the defect of that
    identity on the given jet.
    """
    if p <= 1.0:
        raise InvalidParameterError(f"exponent must satisfy p > 1, got {p}")
    jet = gradient_jet(u2)
    w = jet.value
    if abs(w) < FIELD_FLOOR:
        raise ZeroFieldError(
            f"gradient residual needs a nonvanishing gradient, "
            f"got |f| = {abs(w):.3e} at {u2.base}"
        )
    coeff = (2.0 - p) / (2.0 * p)
    return complex(
        jet.dzbar
        - coeff * ((w.conjugate() / w) * jet.dz + (w / w.conjugate()) * jet.dz.conjugate())
    )


@dataclass(frozen=True)
class BeltramiReport:
    """Linear Beltrami residual of the rescaled gradient field."""

    residual: complex
    coefficient: float
    jet: Jet


def beltrami_residual(f, z, p):
    """Residual of the constant-coefficient Beltrami equation for ``f``.

    The modulus rescaling g = |f|**(sqrt(p-1) - 1) * f of a solution of the
    p-harmonic gradient system satisfies

        dg/d(conj z) = kappa * (conj g / g) * dg/dz,
        kappa = (1 - sqrt(p-1)) / (1 + sqrt(p-1)),

    exactly.  The rescaled field is differentiated by finite differences, so
    ``f`` must be bounded away from zero near ``z``.
    """
    if p <= 1.0:
        raise InvalidParameterError(f"exponent must satisfy p > 1, got {p}")
    z = complex(z)
    alpha = math.sqrt(p - 1.0)
    kappa = (1.0 - alpha) / (1.0 + alpha)

    def rescaled(pts):
        vals = np.asarray(f(np.asarray(pts, dtype=complex)), dtype=complex)
        mods = np.abs(vals)
        if np.any(mods < FIELD_FLOOR):
            bad = np.asarray(pts, dtype=complex).ravel()[
                int(np.argmin(mods.ravel()))
            ]
            raise ZeroFieldError(
                f"modulus rescaling needs |f| >= {FIELD_FLOOR:g} near {z}, "
                f"violated at {bad}"
            )
        return mods ** (alpha - 1.0) * vals

    jet = wirtinger_jet(rescaled, z)
    g = jet.value
    if abs(g) < FIELD_FLOOR:
        raise ZeroFieldError(
            f"Beltrami residual needs |g(z)| >= {FIELD_FLOOR:g}, got {abs(g):.3e}"
        )
    residual = jet.dzbar - kappa * (g.conjugate() / g) * jet.dz
    return BeltramiReport(
        residual=complex(residual),
        coefficient=float(kappa),
        jet=jet,
    )
