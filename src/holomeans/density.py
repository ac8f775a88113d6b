"""Strictly convex radial densities and their Young (Legendre-Fenchel) conjugates.

A density here is the radial profile ``F`` of an integrand ``H(w) = F(|w|)``
acting on complex residuals.  It must satisfy ``F(0) = 0``, ``F'(0+) = 0``,
``F'' > 0`` on ``(0, inf)`` and unbounded growth, and the log-derivative ratio

    lam(s) = s * F''(s) / F'(s)

must stay pinched between declared positive bounds ``lambda_lo <= lam(s) <=
lambda_hi``.  Those bounds drive every quantitative estimate downstream, so
they are carried on the object and checked by :func:`validate_density` rather
than silently inferred.

The small-argument behaviour ``F'(s) ~ small_coeff * s**small_exponent`` is
declared as well; the pair gives the exact value ``lam(0+) = small_exponent``
used where a limit of ``lam`` at zero is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DegenerateDensityError,
    DomainError,
    HolomeansError,
    InvalidParameterError,
)

__all__ = [
    "Density",
    "CheckResult",
    "ValidationReport",
    "power_density",
    "lambda_of",
    "young_conjugate",
    "validate_density",
]


def _as_float_array(s, allow_zero, what):
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError(f"{what} is defined on s >= 0, got negative input")
    if not allow_zero and np.any(arr == 0.0):
        raise DomainError(f"{what} requires s > 0")
    return arr


def _give_back(arr, template):
    if np.ndim(template) == 0:
        return float(np.asarray(arr).reshape(()))
    return arr


@dataclass(frozen=True)
class Density:
    """Radial convex profile with declared structure constants.

    Parameters
    ----------
    value_fn, deriv_fn, second_deriv_fn : callable
        Vectorized evaluations of F, F' and F''.  ``value_fn`` and
        ``deriv_fn`` must accept all s >= 0, ``second_deriv_fn`` s > 0.
    lambda_lo, lambda_hi : float
        Declared pinching bounds for ``s F''(s) / F'(s)``, with
        ``0 < lambda_lo <= lambda_hi``.
    small_exponent, small_coeff : float
        Leading behaviour ``F'(s) ~ small_coeff * s**small_exponent`` near 0.
    label : str
        Human-readable name used in reports.
    """

    value_fn: Callable
    deriv_fn: Callable
    second_deriv_fn: Callable
    lambda_lo: float
    lambda_hi: float
    small_exponent: float
    small_coeff: float
    label: str = "density"

    def __post_init__(self):
        if not (0.0 < self.lambda_lo <= self.lambda_hi):
            raise InvalidParameterError(
                "density bounds must satisfy 0 < lambda_lo <= lambda_hi, "
                f"got [{self.lambda_lo}, {self.lambda_hi}]"
            )

    def value(self, s):
        """F(s) for s >= 0."""
        arr = _as_float_array(s, True, f"{self.label}: F")
        return _give_back(np.asarray(self.value_fn(arr), dtype=float), s)

    def deriv(self, s):
        """F'(s) for s >= 0."""
        arr = _as_float_array(s, True, f"{self.label}: F'")
        return _give_back(np.asarray(self.deriv_fn(arr), dtype=float), s)

    def second_deriv(self, s):
        """F''(s) for s > 0."""
        arr = _as_float_array(s, False, f"{self.label}: F''")
        return _give_back(np.asarray(self.second_deriv_fn(arr), dtype=float), s)

    @property
    def lambda_at_zero(self):
        """Limit of the pinching ratio at 0+, equal to the declared exponent."""
        return self.small_exponent

    # The terms below depend on the density alone, so each object derives
    # them once.  ``cached_property`` keeps them in the instance ``__dict__``,
    # past the frozen ``__setattr__``; ``==``, ``hash`` and ``repr`` read the
    # fields only, and ``dataclasses.replace`` builds an object without them.

    @cached_property
    def _law(self):
        return _find_power_law(self)

    @cached_property
    def _conjugate(self):
        return _make_young_conjugate(self)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    location: float
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    ok: bool

    def failed(self):
        return tuple(c for c in self.checks if not c.passed)


def power_density(p):
    """The power profile F(s) = s**p / p with constant pinching ratio p - 1.

    Parameters
    ----------
    p : float
        Exponent, must exceed 1 for strict convexity with F'(0) = 0.
    """
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise InvalidParameterError(f"power density needs p > 1, got {p}")

    def _value(s):
        return s**p / p

    def _deriv(s):
        return s ** (p - 1.0)

    def _second(s):
        return (p - 1.0) * s ** (p - 2.0)

    return Density(
        value_fn=_value,
        deriv_fn=_deriv,
        second_deriv_fn=_second,
        lambda_lo=p - 1.0,
        lambda_hi=p - 1.0,
        small_exponent=p - 1.0,
        small_coeff=1.0,
        label=f"power[p={p:g}]",
    )


def lambda_of(d, s):
    """Pinching ratio ``s F''(s) / F'(s)`` evaluated at s > 0.

    Where F', F'' or the ratio is not finite (F' overflows from s of about
    1.3e154 at p = 3), a power law (:func:`_power_law`) gives its exponent,
    which is its ratio at every s; any other density raises
    :class:`~holomeans.errors.DomainError`.  Every other entry is the
    quotient itself.
    """
    arr = _as_float_array(s, False, f"{d.label}: lambda")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fp = np.asarray(d.deriv_fn(arr), dtype=float)
        fpp = np.asarray(d.second_deriv_fn(arr), dtype=float)
        out = arr * fpp / fp
    if np.any(fp <= 0.0):
        raise DegenerateDensityError(
            f"{d.label}: F' must be positive on s > 0 for the pinching ratio"
        )
    lost = ~(np.isfinite(fp) & np.isfinite(fpp) & np.isfinite(out))
    if lost.any():
        law = _power_law(d)
        if law is None:
            raise DomainError(
                f"{d.label}: the pinching ratio is not finite at s = {arr[lost].flat[0]:.6g}"
            )
        out = np.where(lost, law[1], out)
    return _give_back(out, s)


def _per_point(fn, s):
    """``fn`` over the 1-d array ``s`` in one call, a failing entry's error in its slot.

    Returns ``(values, errors)``.  If the one call raises a
    :class:`HolomeansError`, each entry is evaluated on its own, so only the
    entries that fail get NaN and their error.
    """
    s = np.asarray(s, dtype=float)
    try:
        return np.asarray(fn(s), dtype=float), [None] * s.size
    except HolomeansError:
        pass
    values = np.full(s.size, np.nan)
    errors = [None] * s.size
    for i in range(s.size):
        try:
            values[i] = fn(s[i:i + 1])[0]
        except HolomeansError as exc:
            errors[i] = exc
    return values, errors


def _invert_deriv(d, t):
    """Solve F'(s) = t for finite t >= 0, vectorized.

    Bisect [0, max float] on the bit patterns of the floats in it: these
    order like the values and space them about evenly in log s, so at most
    63 halvings leave the smallest float with F'(s) >= t, for t of any
    magnitude.  A root that underflows therefore gives the smallest
    subnormal, 5e-324, not 0: G'(t) stays positive for t > 0, as
    :func:`lambda_of` needs when it is evaluated at the slope.  t = 0 gives
    0.  F' may overflow to inf on the way, which still orders right; only a
    t above F'(max float) cannot be bracketed.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise DomainError(f"{d.label}: conjugate slope needs finite t >= 0")
    out = np.zeros_like(flat)
    pos = flat > 0.0
    tv = flat[pos]
    hi = np.full_like(tv, np.finfo(float).max)
    with np.errstate(over="ignore"):
        if np.any(np.asarray(d.deriv_fn(hi), dtype=float) < tv):
            raise DegenerateDensityError(
                f"{d.label}: could not bracket F'(s) = t; F' may be bounded"
            )
        # F'(lo) < t <= F'(hi) holds throughout, with lo and hi as float bits.
        hi = hi.view(np.int64)
        lo = np.zeros_like(hi)
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            below = np.asarray(d.deriv_fn(mid.view(float)), dtype=float) < tv
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)

    out[pos] = hi.view(float)
    return out.reshape(t.shape)


# Grid on which F' is probed: for strict increase and for its power law.
_PROBE = np.geomspace(1e-8, 1e8, 33)


def _probe_deriv(d):
    """The probe points where F' has not overflowed or underflowed (p >= 40), and F' there."""
    with np.errstate(over="ignore", under="ignore"):
        fp = np.asarray(d.deriv_fn(_PROBE), dtype=float)
    keep = ~((fp == np.inf) | ((fp >= 0.0) & (fp < np.finfo(float).tiny)))
    return _PROBE[keep], fp[keep]


def _power_law(d):
    """``(coeff, alpha)`` when ``F'(s) = coeff * s**alpha`` exactly, else None.

    The density must declare constant pinching (``lambda_lo == lambda_hi ==
    small_exponent``, as :func:`power_density` does), and its F' must match
    ``small_coeff * s**small_exponent`` on the probe grid to 1e-12 relative.
    Its F is then ``coeff * s**(alpha + 1) / (alpha + 1)``, since F(0) = 0.
    Found once per density object.
    """
    return d._law


def _find_power_law(d):
    alpha, coeff = d.small_exponent, d.small_coeff
    if not d.lambda_lo == d.lambda_hi == alpha:
        return None
    s, fp = _probe_deriv(d)
    with np.errstate(over="ignore", under="ignore"):
        law = coeff * s**alpha
    return (coeff, alpha) if s.size and np.all(np.abs(fp - law) <= 1e-12 * fp) else None


def young_conjugate(d):
    """The conjugate profile G with G'(t) inverting F'.

    G(t) = t G'(t) - F(G'(t)); G'' follows from F''(G') G'' = 1, and the
    pinching bounds invert: lam_G in [1/lambda_hi, 1/lambda_lo].

    A density with an exact power law ``F' = small_coeff *
    s**small_exponent`` (see :func:`_power_law`) gets the exact slope
    ``G'(t) = (t / small_coeff)**(1 / small_exponent)``; every other density
    solves F'(s) = t numerically.

    Made once per density object, which then returns the same conjugate.

    Raises
    ------
    DegenerateDensityError
        If F' is not strictly increasing on a coarse sampling grid.
    """
    return d._conjugate


def _make_young_conjugate(d):
    fp = _probe_deriv(d)[1]
    if fp.size < 2 or not np.all(np.diff(fp) > 0.0):
        raise DegenerateDensityError(
            f"{d.label}: F' is not strictly increasing; conjugate undefined"
        )
    alpha, coeff = d.small_exponent, d.small_coeff
    if _power_law(d) is not None:

        def _g_deriv(t):
            return (np.asarray(t, dtype=float) / coeff) ** (1.0 / alpha)

    else:

        def _g_deriv(t):
            return _invert_deriv(d, t)

    def _g_value(t):
        s = _g_deriv(t)
        return np.asarray(t, dtype=float) * s - np.asarray(d.value_fn(s), dtype=float)

    def _g_second(t):
        s = _g_deriv(t)
        fpp = np.asarray(d.second_deriv_fn(np.maximum(s, 1e-300)), dtype=float)
        return 1.0 / fpp

    return Density(
        value_fn=_g_value,
        deriv_fn=_g_deriv,
        second_deriv_fn=_g_second,
        lambda_lo=1.0 / d.lambda_hi,
        lambda_hi=1.0 / d.lambda_lo,
        small_exponent=1.0 / alpha,
        small_coeff=coeff ** (-1.0 / alpha),
        label=f"conjugate[{d.label}]",
    )


def _audited(fn, s):
    """``fn(s)`` and where a float holds it: not where it overflowed to inf,
    nor where it underflowed below the smallest normal float.

    An entry that is inf or in [0, tiny) is evaluated again alone with over-
    and underflow raised, so an inf or an exact zero that neither made still
    counts.
    """
    with np.errstate(over="ignore", under="ignore"):
        values = np.asarray(fn(s), dtype=float)
    usable = np.ones(values.shape, dtype=bool)
    suspect = (values == np.inf) | ((values >= 0.0) & (values < np.finfo(float).tiny))
    for i in np.flatnonzero(suspect):
        try:
            with np.errstate(all="ignore", over="raise", under="raise"):
                fn(s[i : i + 1])
        except FloatingPointError:
            usable[i] = False
    return values, usable


def validate_density(d, sample_count=200):
    """Sample-based structural audit of a density.

    Checks, on a geometric grid spanning [1e-6, 1e6]:

    * ``zero_at_zero``      F(0) = 0
    * ``deriv_at_zero``     F' follows the declared small-argument power law
    * ``strict_convexity``  F'' > 0 everywhere sampled
    * ``deriv_positive``    F' > 0 on s > 0
    * ``lambda_bounds``     the pinching ratio respects the declared bounds
    * ``monotone_growth``   F increases and is unbounded in practice

    A check leaves out the grid points where a value it reads overflows or
    underflows (F' of ``power_density(60)`` does both on this grid), and
    fails, saying so, when no point is left.  ``deriv_at_zero`` reads the
    points up to 1e-4, or the smallest point left when none of those is.

    Returns a :class:`ValidationReport`; nothing is raised on failure.
    """
    if sample_count < 16:
        raise InvalidParameterError("sample_count must be at least 16")
    grid = np.geomspace(1e-6, 1e6, int(sample_count))
    checks = []

    def check(name, passed, worst, location, message):
        checks.append(CheckResult(name, bool(passed), float(worst), float(location), message))

    def usable(name, what, ok, *values):
        """The grid and ``values`` where ``ok``; None, failing ``name``, where nowhere."""
        if ok.any():
            return (grid[ok],) + tuple(v[ok] for v in values)
        check(name, False, np.nan, np.nan, f"{what} overflows or underflows at every sampled point")
        return None

    f0 = float(d.value(0.0))
    check("zero_at_zero", abs(f0) <= 1e-12, abs(f0), 0.0, f"F(0) = {f0:.3e}")

    fv, fv_ok = _audited(d.value_fn, grid)
    fp, fp_ok = _audited(d.deriv_fn, grid)
    fpp, fpp_ok = _audited(d.second_deriv_fn, grid)
    law, law_ok = _audited(lambda s: d.small_coeff * s**d.small_exponent, grid)

    pts = usable("deriv_at_zero", "F' or its declared small-argument law", fp_ok & law_ok, fp, law)
    if pts:
        small, fp_small, expected = (a[pts[0] <= max(1e-4, pts[0][0])] for a in pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(expected > 0.0, fp_small / expected, np.inf)
        dev = np.abs(np.log10(np.maximum(ratio, 1e-300)))
        i = int(np.argmax(dev))
        check("deriv_at_zero", np.isfinite(dev[i]) and dev[i] <= 1.0, dev[i], small[i],
              "log10 deviation of F' from declared small-argument law")

    pts = usable("strict_convexity", "F''", fpp_ok, fpp)
    if pts:
        at, values = pts
        i = int(np.argmin(values))
        check("strict_convexity", np.all(values > 0.0), values[i], at[i],
              f"min F'' = {values[i]:.3e}")

    pts = usable("deriv_positive", "F'", fp_ok, fp)
    if pts:
        at, values = pts
        i = int(np.argmin(values))
        check("deriv_positive", np.all(values > 0.0), values[i], at[i], f"min F' = {values[i]:.3e}")

    with np.errstate(over="ignore"):
        scaled = grid * fpp  # s F'' may overflow where F'' does not
    ok = fp_ok & fpp_ok & ~((scaled == np.inf) & np.isfinite(fpp))
    pts = usable("lambda_bounds", "F', F'' or s F''", ok, fp, fpp, scaled)
    if pts and np.all(pts[1] > 0.0) and np.all(np.isfinite(pts[2])):
        at, values, _, scaled = pts
        lam = scaled / values
        slack = 1e-9 * (1.0 + abs(d.lambda_hi))
        viol = np.maximum(d.lambda_lo - lam, lam - d.lambda_hi)
        i = int(np.argmax(viol))
        check("lambda_bounds", np.all(viol <= slack), viol[i], at[i],
              f"lam = {lam[i]:.6g} outside [{d.lambda_lo:g}, {d.lambda_hi:g}]"
              if viol[i] > slack else "")
    elif pts:
        check("lambda_bounds", False, np.inf, grid[0],
              "pinching ratio not computable (F' <= 0 or F'' not finite)")

    pts = usable("monotone_growth", "F", fv_ok, fv)
    if pts:
        at, values = pts
        big = float(values[-1]) >= 1e3 * max(1.0, float(d.value(1.0)))
        check("monotone_growth", np.all(np.diff(values) > 0.0) and big, values[-1], at[-1],
              "F must increase without bound")
    return ValidationReport(checks=tuple(checks), ok=all(c.passed for c in checks))
