"""Density profiles: closed forms, validation and conjugation."""

import dataclasses
import warnings

import numpy as np
import pytest

import holomeans as hm
from holomeans.density import _per_point, _power_law
from holomeans.errors import (
    DegenerateDensityError,
    DomainError,
    InvalidParameterError,
)

POWERS = (1.5, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("p", POWERS)
def test_power_closed_forms(p):
    d = hm.power_density(p)
    s = np.array([0.25, 1.0, 2.0, 7.5])
    np.testing.assert_allclose(d.value_fn(s), s**p / p, rtol=1e-14)
    np.testing.assert_allclose(d.deriv_fn(s), s ** (p - 1), rtol=1e-14)
    np.testing.assert_allclose(d.second_deriv_fn(s), (p - 1) * s ** (p - 2), rtol=1e-14)


@pytest.mark.parametrize("p", POWERS)
def test_power_convexity_ratio_is_constant(p):
    d = hm.power_density(p)
    assert d.lambda_lo == pytest.approx(p - 1)
    assert d.lambda_hi == pytest.approx(p - 1)
    for s in (1e-3, 0.5, 1.0, 40.0):
        assert hm.lambda_of(d, s) == pytest.approx(p - 1, rel=1e-13)


@pytest.mark.parametrize("p", POWERS)
def test_power_mu_matches_exponent_formula(p):
    d = hm.power_density(p)
    for s in (1e-2, 0.3, 1.0, 9.0):
        assert hm.mu_of(d, s) == pytest.approx((p - 2) / p, rel=1e-13)


@pytest.mark.parametrize("p", (1.0, 0.5, 0.0, -2.0))
def test_power_rejects_degenerate_exponent(p):
    with pytest.raises(InvalidParameterError):
        hm.power_density(p)


@pytest.mark.parametrize("p", POWERS)
def test_validate_density_passes_for_powers(p):
    report = hm.validate_density(hm.power_density(p))
    assert report.ok
    assert all(c.passed for c in report.checks)


def test_validate_density_flags_nonconvex_profile():
    d = hm.power_density(2)
    bad = hm.Density(
        value_fn=lambda s: np.sin(s),
        deriv_fn=lambda s: np.cos(s),
        second_deriv_fn=lambda s: -np.sin(s),
        lambda_lo=d.lambda_lo,
        lambda_hi=d.lambda_hi,
        small_exponent=d.small_exponent,
        small_coeff=d.small_coeff,
        label="sin",
    )
    report = hm.validate_density(bad)
    assert not report.ok


@pytest.mark.parametrize("p", POWERS)
def test_young_conjugate_inverts_derivative(p):
    d = hm.power_density(p)
    g = hm.young_conjugate(d)
    s = np.array([1e-4, 1e-2, 0.5, 1.0, 3.0, 1e3])
    round_trip = g.deriv_fn(d.deriv_fn(s))
    assert np.all(np.abs(round_trip - s) <= 1e-10 * (1.0 + s))
    # pinching bounds invert
    assert g.lambda_lo == pytest.approx(1.0 / d.lambda_hi, rel=1e-12)
    assert g.lambda_hi == pytest.approx(1.0 / d.lambda_lo, rel=1e-12)


@pytest.mark.parametrize("p", POWERS)
def test_young_conjugate_is_power_dual(p):
    # for F = s^p / p the conjugate is t^q / q with 1/p + 1/q = 1
    q = p / (p - 1)
    g = hm.young_conjugate(hm.power_density(p))
    t = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(g.value_fn(t), t**q / q, rtol=1e-9, atol=1e-12)


def _declared(d, lambda_lo, lambda_hi, label):
    """``d`` with other declared pinching bounds."""
    return hm.Density(d.value_fn, d.deriv_fn, d.second_deriv_fn, lambda_lo,
                      lambda_hi, d.small_exponent, d.small_coeff, label)


@pytest.mark.parametrize("p", (1.2, 1.5, 2.0, 3.0, 8.0))
def test_power_conjugate_slope_is_exact_and_the_general_path_agrees(p):
    # Bounds around the constant ratio p - 1 are true but not constant, so
    # the second conjugate inverts F' numerically.
    d = hm.power_density(p)
    wide = _declared(d, p - 1.1, p - 0.9, "wide")
    t = np.geomspace(1e-12, 1e12, 97)
    exact = t ** (1.0 / (p - 1.0))
    closed = hm.young_conjugate(d).deriv_fn(t)
    general = hm.young_conjugate(wide).deriv_fn(t)
    np.testing.assert_allclose(closed, exact, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(general, closed, rtol=1e-12, atol=0.0)


def test_numerical_conjugate_slope_of_zeros_and_of_an_underflowing_root():
    # Bounds around p - 1 force the numerical inverse.  The root of
    # F'(s) = 1e-300 at p = 1.2 is 1e-1500, which underflows: the inverse
    # returns the smallest subnormal, the smallest float with F'(s) >= t.
    d = hm.power_density(1.2)
    g = hm.young_conjugate(_declared(d, 0.1, 0.3, "wide"))
    zeros = g.deriv(np.zeros((2, 3)))
    assert zeros.shape == (2, 3)
    np.testing.assert_array_equal(zeros, 0.0)
    assert g.deriv(1e-300) == 5e-324


def _twice_cubic():
    """F'(s) = 2 s**2, whose constant ratio 2 is declared with small_coeff 1, not 2."""
    return hm.Density(
        value_fn=lambda s: 2.0 * s**3 / 3.0,
        deriv_fn=lambda s: 2.0 * s**2,
        second_deriv_fn=lambda s: 4.0 * s,
        lambda_lo=2.0,
        lambda_hi=2.0,
        small_exponent=2.0,
        small_coeff=1.0,
        label="twice-cubic",
    )


def test_power_law_is_recognised_only_where_declared_and_true():
    for p in (1.2, 2.0, 3.0, 8.0):
        d = hm.power_density(p)
        assert _power_law(d) == (1.0, p - 1.0)
        assert _power_law(_declared(d, p - 1.1, p - 0.9, "wide")) is None
    assert _power_law(_twice_cubic()) is None


def test_per_density_terms_are_made_once_and_match_a_fresh_density():
    # The power law and the conjugate are derived once per density object and
    # kept in its __dict__: a second call returns the same objects, a fresh
    # power_density(3) derives terms of the same bits, and ==, hash and repr
    # read the fields alone.
    from holomeans.means import _node_terms

    d = hm.power_density(3)
    pts = [0.4 + 0.3j, 0.6 + 0.5j, 0.3 + 0.7j]
    t = np.geomspace(1e-9, 1e9, 37)
    first = repr(hm.holomorphy_verdict(np.exp, pts, d))
    law, conjugate = _power_law(d), hm.young_conjugate(d)
    assert _power_law(d) is law and hm.young_conjugate(d) is conjugate
    assert repr(hm.holomorphy_verdict(np.exp, pts, d)) == first
    fresh = hm.power_density(3)
    assert _power_law(fresh) == law == (1.0, 2.0)
    assert hm.young_conjugate(fresh).deriv_fn(t).tobytes() == conjugate.deriv_fn(t).tobytes()
    assert repr(hm.holomorphy_verdict(np.exp, pts, fresh)) == first
    same = dataclasses.replace(d)
    assert same == d and hash(same) == hash(d) and repr(same) == repr(d)
    # A density made from it with other bounds derives its own terms: the
    # general kernel and the numerical inversion, never the cached power law.
    general = dataclasses.replace(d, lambda_lo=1.9, lambda_hi=2.1)
    assert not {"_law", "_conjugate"} & set(vars(general))
    assert _power_law(general) is None and _node_terms(general)[3] is None
    g = hm.young_conjugate(general)
    assert g is not conjugate and (g.lambda_lo, g.lambda_hi) == (1.0 / 2.1, 1.0 / 1.9)
    np.testing.assert_allclose(g.deriv_fn(t), conjugate.deriv_fn(t), rtol=1e-12)
    assert _node_terms(d)[3] == 2.0


@pytest.mark.parametrize("p", (40.0, 45.0, 60.0))
def test_large_powers_keep_their_power_law_and_conjugate(p):
    # F' = s**(p - 1) overflows at one end of the probe grid and underflows
    # at the other; the probe drops those entries instead of refusing the
    # density, and nothing is reported.  The pytest configuration makes a
    # RuntimeWarning an error; the filter keeps this so when run alone.
    pts = [0.4 + 0.3j, 0.6 + 0.5j]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = hm.power_density(p)
        assert _power_law(d) == (1.0, p - 1.0)
        hm.young_conjugate(d)
        holo = hm.holomorphy_verdict(np.exp, pts, d)
        violated = hm.system_verdict(np.exp, pts, d)
        satisfied = hm.system_verdict(hm.make_field(f"pharm-radial:{p:g}"), pts, d)
    assert [row.verdict for row in holo] == ["holomorphic"] * 2
    assert [row.status for row in violated] == ["violated"] * 2
    assert [row.status for row in satisfied] == ["satisfied"] * 2


def test_constant_pinching_without_the_declared_power_law_inverts_numerically():
    # The closed form would give sqrt(t) instead of sqrt(t / 2).
    d = _twice_cubic()
    s = np.geomspace(1e-6, 1e6, 13)
    np.testing.assert_allclose(hm.young_conjugate(d).deriv_fn(d.deriv_fn(s)), s, rtol=1e-12)


def test_holomorphy_verdict_of_a_small_field_near_p_one():
    # G'(1e-6) = 1e-30 at p = 1.2; the numerical inverse used to return 0.
    rows = hm.holomorphy_verdict(
        lambda z: 1e-6 * np.exp(z), [0.1 + 0.2j, 0.5, -0.3 + 0.4j], hm.power_density(1.2)
    )
    assert [row.verdict for row in rows] == ["holomorphic"] * 3


def test_young_conjugate_refuses_flat_derivative():
    d = hm.power_density(2)
    flat = hm.Density(
        value_fn=lambda s: np.ones_like(s),
        deriv_fn=lambda s: np.zeros_like(s),
        second_deriv_fn=lambda s: np.zeros_like(s),
        lambda_lo=d.lambda_lo,
        lambda_hi=d.lambda_hi,
        small_exponent=d.small_exponent,
        small_coeff=d.small_coeff,
        label="flat",
    )
    with pytest.raises(DegenerateDensityError):
        hm.young_conjugate(flat)


def test_numerical_conjugate_slope_brackets_over_the_whole_float_range():
    # t**(1 / lambda_lo) overflows for t = 1e50 at lambda_lo = 0.1, yet the
    # root 1e250 of F'(s) = s**0.2 = t is a float.
    g = hm.young_conjugate(_declared(hm.power_density(1.2), 0.1, 0.3, "wide"))
    assert g.deriv(1e50) == pytest.approx(1e250, rel=1e-12)
    # F'(s) = s**2 overflows on the way to the root 1e150; nothing is reported.
    cubic = hm.young_conjugate(_declared(hm.power_density(3), 1.0, 3.0, "wide"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cubic.deriv(1e300) == pytest.approx(1e150, rel=1e-12)


@pytest.mark.parametrize("t", (np.nan, np.inf, -1.0))
def test_numerical_conjugate_slope_needs_a_finite_nonnegative_argument(t):
    g = hm.young_conjugate(_declared(hm.power_density(3), 1.0, 3.0, "wide"))
    with pytest.raises(DomainError, match="finite t >= 0"):
        g.deriv_fn(np.array([0.5, t]))


def test_numerical_conjugate_slope_refuses_a_bounded_derivative():
    # F'(s) = s / (1 + s) stays below 1, so F'(s) = 2 has no root; the
    # increasing probe grid lets the conjugate be built.
    bounded = hm.Density(
        value_fn=lambda s: s - np.log1p(s),
        deriv_fn=lambda s: s / (1.0 + s),
        second_deriv_fn=lambda s: 1.0 / (1.0 + s) ** 2,
        lambda_lo=0.5,
        lambda_hi=1.0,
        small_exponent=1.0,
        small_coeff=1.0,
        label="bounded",
    )
    g = hm.young_conjugate(bounded)
    assert g.deriv(0.5) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DegenerateDensityError, match="could not bracket"):
        g.deriv(2.0)


@pytest.mark.parametrize("p", (1.5, 3.0, 8.0))
@pytest.mark.parametrize("declared", ("power", "wide"))
def test_conjugate_second_derivative_is_the_power_dual(p, declared):
    # G'(t) = t**(1/(p-1)), so G''(t) = t**((2-p)/(p-1)) / (p-1), on both
    # the closed-form and the numerical slope.
    d = hm.power_density(p)
    if declared == "wide":
        d = _declared(d, p - 1.1, p - 0.9, "wide")
    t = np.geomspace(1e-3, 1e3, 13)
    np.testing.assert_allclose(
        hm.young_conjugate(d).second_deriv(t),
        t ** ((2.0 - p) / (p - 1.0)) / (p - 1.0),
        rtol=1e-10,
    )


def test_density_evaluations_check_their_domain():
    d = hm.power_density(3)
    assert d.second_deriv(2.0) == pytest.approx(4.0, rel=1e-15)
    np.testing.assert_allclose(d.second_deriv(np.array([0.5, 3.0])), [1.0, 6.0], rtol=1e-15)
    with pytest.raises(DomainError, match="requires s > 0"):
        d.second_deriv(0.0)
    with pytest.raises(DomainError, match="s >= 0"):
        d.value(-1.0)
    with pytest.raises(DomainError, match="s >= 0"):
        d.deriv(np.array([1.0, -0.5]))


@pytest.mark.parametrize("lo, hi", ((0.0, 1.0), (2.0, 1.0), (-1.0, 2.0)))
def test_density_refuses_disordered_or_nonpositive_bounds(lo, hi):
    d = hm.power_density(2)
    with pytest.raises(InvalidParameterError, match="0 < lambda_lo <= lambda_hi"):
        _declared(d, lo, hi, "bad")


def test_validation_report_names_the_failed_checks():
    # The true ratio of s**3 / 3 is 2, outside the declared [1, 1.5].
    report = hm.validate_density(_declared(hm.power_density(3), 1.0, 1.5, "narrow"))
    assert isinstance(report, hm.ValidationReport)
    assert not report.ok
    (failed,) = report.failed()
    assert isinstance(failed, hm.CheckResult)
    assert failed.name == "lambda_bounds"
    assert failed.message == "lam = 2 outside [1, 1.5]"
    assert hm.validate_density(hm.power_density(3)).failed() == ()
    with pytest.raises(InvalidParameterError, match="at least 16"):
        hm.validate_density(hm.power_density(3), sample_count=15)


def test_pinching_ratio_refuses_a_falling_density():
    falling = hm.Density(
        value_fn=lambda s: -s,
        deriv_fn=lambda s: -np.ones_like(s),
        second_deriv_fn=lambda s: np.zeros_like(s),
        lambda_lo=1.0,
        lambda_hi=1.0,
        small_exponent=1.0,
        small_coeff=1.0,
        label="falling",
    )
    with pytest.raises(DegenerateDensityError, match="F' must be positive"):
        hm.lambda_of(falling, 1.0)


def test_pinching_ratio_past_the_overflow_of_f_prime():
    # At p = 3, F'(s) = s**2 overflows above about 1.3e154 and s F''(s) a
    # little below; a power law's ratio is then its exponent.  Entries whose
    # quotient is finite keep its bits.
    d = hm.power_density(3)
    s = np.array([0.5, 3.0, 1e154, 1.3e154, 1e200, 1e308])
    lam = hm.lambda_of(d, s)
    assert lam[2:].tolist() == [2.0] * 4
    assert lam[:2].tobytes() == (s[:2] * d.second_deriv_fn(s[:2]) / d.deriv_fn(s[:2])).tobytes()
    assert hm.lambda_of(d, 1e200) == 2.0
    # Any other density has no ratio to fall back on: a typed error per entry.
    general = dataclasses.replace(d, lambda_lo=1.9, lambda_hi=2.1)
    assert _power_law(general) is None
    with pytest.raises(DomainError, match=r"pinching ratio is not finite at s = 1e\+154"):
        hm.lambda_of(general, s)
    values, errors = _per_point(lambda t: hm.lambda_of(general, t), s)
    assert values[:2].tobytes() == lam[:2].tobytes() and errors[:2] == [None, None]
    assert all(isinstance(e, DomainError) for e in errors[2:]) and np.isnan(values[2:]).all()


@pytest.mark.parametrize("p", (51, 52, 60, 200))
def test_validate_density_passes_for_powers_past_the_float_range(p):
    # F, F' and F'' over- and underflow on the audit grid from p = 52 on;
    # the checks leave those points out (a leaked warning fails the suite).
    report = hm.validate_density(hm.power_density(p))
    assert report.ok, report.failed()


def test_validate_density_fails_a_check_without_a_usable_point():
    # F'' overflows at every grid point.
    blown = dataclasses.replace(hm.power_density(3), second_deriv_fn=lambda s: (s + 1e308) * 10.0)
    report = hm.validate_density(blown)
    assert [c.name for c in report.failed()] == ["strict_convexity", "lambda_bounds"]
    assert report.failed()[0].message == "F'' overflows or underflows at every sampled point"
    assert report.failed()[1].message == "F', F'' or s F'' overflows or underflows at every sampled point"


def test_validate_density_fails_an_infinite_curvature_that_no_overflow_made():
    # F'' is +inf at one grid point without overflowing there: the point is
    # audited, not left out, and the pinching ratio is not computable.
    grid = np.geomspace(1e-6, 1e6, 200)
    d = hm.power_density(3)
    spiked = dataclasses.replace(
        d, second_deriv_fn=lambda s: np.where(s == grid[150], np.inf, d.second_deriv_fn(s))
    )
    report = hm.validate_density(spiked)
    assert [c.name for c in report.failed()] == ["lambda_bounds"]
    assert "F'' not finite" in report.failed()[0].message


def test_validate_density_flags_a_curvature_that_vanishes_exactly():
    # An exact zero that no underflow made stays in the audit: a Huber profile
    # is not strictly convex past 1.
    huber = hm.Density(
        value_fn=lambda s: np.where(s <= 1.0, 0.5 * s**2, s - 0.5),
        deriv_fn=lambda s: np.minimum(s, 1.0),
        second_deriv_fn=lambda s: np.where(s <= 1.0, 1.0, 0.0),
        lambda_lo=1.0,
        lambda_hi=1.0,
        small_exponent=1.0,
        small_coeff=1.0,
        label="huber",
    )
    report = hm.validate_density(huber)
    assert [c.name for c in report.failed()] == ["strict_convexity", "lambda_bounds"]
