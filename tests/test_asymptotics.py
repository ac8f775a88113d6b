"""Radius sweeps, extrapolation to radius zero, and the three verdicts."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holomeans as hm
from holomeans.asymptotics import _estimates, _extrapolate_rows
from holomeans.errors import InsufficientDataError, InvalidParameterError, NonFiniteSampleError

D2 = hm.power_density(2)
D3 = hm.power_density(3)


def test_default_ladder_is_geometric():
    cfg = hm.SweepConfig()
    radii = cfg.radii()
    np.testing.assert_allclose(radii, 0.1 * 0.5 ** np.arange(8), rtol=1e-15)


def test_sweep_config_validation():
    # the ladder parameters are validated when the config is built
    with pytest.raises(InvalidParameterError):
        hm.SweepConfig(r0=0.0).radii()
    with pytest.raises(InvalidParameterError):
        hm.SweepConfig(rho=1.0).radii()
    with pytest.raises(InvalidParameterError):
        hm.SweepConfig(count=1).radii()
    assert hm.SweepConfig(count=hm.asymptotics.MIN_SUCCESSES).radii().size == 4


@pytest.mark.parametrize("fields, message", (
    ({"r0": float("nan")}, "r0 must be positive and finite, got nan"),
    ({"r0": float("inf")}, "r0 must be positive and finite, got inf"),
    ({"rho": float("nan")}, "rho must lie in (0, 1), got nan"),
))
def test_sweep_config_refuses_out_of_range_fields_when_built(fields, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        hm.SweepConfig(**fields)


def test_extrapolate_exact_linear_series():
    radii = hm.SweepConfig().radii()
    limit, slope = 0.3 - 0.2j, 1.5 + 0.7j
    values = limit + slope * radii
    est = hm.extrapolate(radii, values)
    assert abs(est.limit - limit) <= 1e-12
    assert abs(est.slope - slope) <= 1e-10
    assert est.fit_residual <= 1e-12
    assert est.verdict == "converges_nonzero"


def test_extrapolate_vanishing_series():
    radii = hm.SweepConfig().radii()
    est = hm.extrapolate(radii, (2.0 - 1.0j) * radii)
    assert abs(est.limit) <= 1e-12
    assert est.verdict == "vanishes"


@given(
    c2re=st.floats(0.1, 5.0),
    c2im=st.floats(-5.0, 5.0),
    lre=st.floats(-2.0, 2.0),
    lim=st.floats(-2.0, 2.0),
)
def test_extrapolation_soundness_on_quadratic_series(c2re, c2im, lre, lim):
    # intercept error of the linear fit on L + c2 r^2 stays below 2e-2 |c2|
    radii = hm.SweepConfig().radii()
    c2 = complex(c2re, c2im)
    limit = complex(lre, lim)
    est = hm.extrapolate(radii, limit + c2 * radii**2)
    assert abs(est.limit - limit) <= 2e-2 * abs(c2)


def test_extrapolate_flags_noisy_series_inconclusive():
    radii = hm.SweepConfig().radii()
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(radii.size) + 1j * rng.standard_normal(radii.size)
    est = hm.extrapolate(radii, 0.2 + 3.0 * noise)
    assert est.verdict == "inconclusive"


def test_extrapolate_needs_two_radii():
    for radii in ([], [0.1], [0.1, 0.1]):
        with pytest.raises(hm.InvalidSweepError, match="two distinct radii"):
            hm.extrapolate(radii, np.ones(len(radii), dtype=complex))


def test_sweep_runs_all_radii_and_records_extras():
    sw = hm.sweep("variational", np.exp, 0.4 + 0.1j, D2)
    assert sw.kind == "variational"
    assert len(sw.radii) == 8
    assert not sw.failures
    assert all(s == "converged" for s in sw.statuses)
    assert all("foc_residual" in e for e in sw.extras)


def test_sweep_extras_count_the_newton_iterations_of_each_radius():
    f, z = hm.make_field("pharm-radial:3"), 0.4 + 0.3j
    d = hm.power_density(3)
    var = hm.sweep("variational", f, z, d)
    pair = hm.sweep("pair_increment", f, z, d)
    for r, v, p in zip(var.radii, var.extras, pair.extras):
        assert v["iterations"] == hm.variational_circle_mean(f, z, r, d).iterations >= 1
        pm = hm.pair_mean(f, z, r, d)
        assert p["iterations"] == pm.center.iterations + pm.slope.iterations


def test_sweep_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError):
        hm.sweep("bogus", np.exp, 0j, D2)


def test_sweep_infinity_records_support_counts():
    sw = hm.sweep("infinity", lambda z: z**2 + 0.4 * np.conj(z), 0.3 + 0.3j, None)
    assert all(e.get("support_count", 0) >= 2 for e in sw.extras)


def test_sweep_skips_failing_radii_and_raises_when_starved():
    def bad(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        out = np.exp(zeta).astype(complex)
        return np.where(np.abs(zeta - 0.5) < 0.06, np.nan, out)

    # every ladder radius except the largest two dips into the bad annulus
    with pytest.raises(InsufficientDataError):
        hm.sweep("variational", bad, 0.5 + 0j, D2)


def test_pair_sweep_at_a_point_where_the_field_is_not_finite_raises():
    # pharm-radial is NaN at the origin, while every circle about it is fine:
    # the pair increments there have no base value.
    pharm = hm.make_field("pharm-radial:3")
    with pytest.raises(NonFiniteSampleError, match="near 0"):
        hm.sweep("pair_increment", pharm, 0, D3)
    assert len(hm.sweep("variational", pharm, 0, D3).radii) == 8


def test_sweep_lets_programming_errors_propagate():
    def broken(zeta):
        raise TypeError("field bug")

    with pytest.raises(TypeError, match="field bug"):
        hm.sweep("variational", broken, 0.5 + 0j, D2)


def test_extrapolate_accepts_sweep_object():
    sw = hm.sweep("variational", np.exp, 0.4 + 0.1j, D2)
    est1 = hm.extrapolate(sw)
    est2 = hm.extrapolate(np.asarray(sw.radii), np.asarray(sw.values))
    assert est1.limit == est2.limit


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_holomorphy_verdict_accepts_entire_functions(p):
    d = hm.power_density(p)
    pts = [0.4 + 0.1j, -0.3 + 0.5j]
    rows = hm.holomorphy_verdict(np.exp, pts, d)
    assert len(rows) == 2
    for row in rows:
        assert row.verdict == "holomorphic"
        assert row.consistent
        assert abs(row.estimate.limit) <= 1e-4


def test_holomorphy_verdict_rejects_antiholomorphic_field():
    rows = hm.holomorphy_verdict(np.conj, 0.5 + 0.5j, D2)
    (row,) = rows
    assert row.verdict == "not_holomorphic"
    # the conjugate-transform limit for conj at p = 2 is exactly 1
    assert abs(row.estimate.limit - 1.0) <= 1e-3
    assert abs(row.predicted_limit - 1.0) <= 1e-12
    assert row.consistent


def test_holomorphy_verdict_untestable_at_field_zero():
    rows = hm.holomorphy_verdict(lambda z: z**2, [0j, 0.5 + 0j], D2)
    assert rows[0].verdict == "untestable"
    assert rows[0].estimate is None
    assert rows[1].verdict == "holomorphic"


def test_system_verdict_on_exact_solution():
    d4 = hm.power_density(4)
    f = hm.make_field("pharm-radial:4")
    cfg = hm.SweepConfig(r0=0.02)
    (row,) = hm.system_verdict(f, 0.5 + 0.3j, d4, cfg)
    assert row.status == "satisfied"
    assert row.analytic_satisfied is True
    assert row.sweep_satisfied is True
    assert row.consistent
    # the analytic residual rests on finite-difference derivatives
    assert abs(row.analytic_residual) <= 1e-8


def test_system_verdict_on_violator():
    f = hm.make_field("modsq")
    (row,) = hm.system_verdict(f, 0.7 + 0.1j, D2)
    assert row.status == "violated"
    assert row.analytic_satisfied is False
    assert row.consistent


def test_system_verdict_untestable_at_zero():
    (row,) = hm.system_verdict(lambda z: z, 0j, D2)
    assert row.status == "untestable"
    assert row.analytic_satisfied is None


def test_amvp_verdict_holds_for_solution():
    cfg = hm.SweepConfig(r0=0.02)
    (row,) = hm.amvp_verdict(np.exp, 0.4 + 0.2j, D2, cfg)
    assert row.status == "holds"
    assert row.holds is True
    assert row.consistent
    assert abs(row.estimate.limit) <= 1e-4


def test_amvp_verdict_fails_for_nonsolution():
    (row,) = hm.amvp_verdict(np.conj, 0.5 + 0.5j, D3)
    assert row.status == "fails"
    assert row.holds is False


def test_newton_steps_that_overflow_leak_no_warning():
    # At p = 60 some rows' Newton step overflows; those rows take no step, and
    # no RuntimeWarning leaks (the suite makes one an error).
    f, d60 = hm.make_field("pharm-radial:60"), hm.power_density(60)
    pts = [0.4 + 0.3j, 0.6 + 0.5j]
    assert hm.amvp_verdict(f, pts, d60)[1].status == "holds"
    report = hm.contact_solution_verdict(f, pts, d60)
    assert len(report.rows) == 2 * hm.contact.DEFAULT_DIRECTION_COUNT


def test_verdicts_accept_point_arrays():
    pts = np.array([0.5 + 0.5j, 0.6 - 0.2j])
    rows = hm.amvp_verdict(np.exp, pts, D2, hm.SweepConfig(r0=0.02))
    assert len(rows) == 2
    assert all(r.status == "holds" for r in rows)


def test_extrapolate_rejects_mismatched_shapes():
    radii = hm.SweepConfig().radii()
    with pytest.raises(hm.InvalidSweepError, match="matching 1-d"):
        hm.extrapolate(radii, radii[:-1].astype(complex))
    with pytest.raises(hm.InvalidSweepError, match="matching 1-d"):
        hm.extrapolate(radii[None, :], radii[None, :].astype(complex))


@pytest.mark.parametrize("radius, value", (
    (float("nan"), 1.0),
    (float("inf"), 1.0),
    (0.05, float("nan")),
    (0.05, complex(1.0, float("inf"))),
))
def test_extrapolate_refuses_nonfinite_radii_and_values(radius, value):
    radii = hm.SweepConfig().radii()
    values = (1.0 + 2.0 * radii).astype(complex)
    radii[3], values[3] = radius, value
    with pytest.raises(hm.InvalidSweepError, match="must be finite"):
        hm.extrapolate(radii, values)


def _lstsq_line(radii, values):
    """Test oracle: limit, slope and RMS residual of the line fitted by an SVD."""
    design = np.stack([np.ones_like(radii), radii], axis=1)
    limit, slope = np.linalg.lstsq(design, values, rcond=None)[0]
    return limit, slope, np.sqrt(np.mean(np.abs(values - (limit + slope * radii)) ** 2))


def test_extrapolation_matches_a_least_squares_oracle():
    rng = np.random.default_rng(11)
    radii = hm.SweepConfig().radii()
    shape = (60, radii.size)
    noise = np.repeat([0.0, 1e-9, 1e-5, 1e-1], 15)[:, None]
    values = (rng.normal(size=(shape[0], 1)) + 1j * rng.normal(size=(shape[0], 1))
              + (rng.normal(size=(shape[0], 1)) - 3j) * radii
              + noise * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    ok = rng.random(shape) < 0.7
    ok[:, [0, -1]] = True
    cols = _extrapolate_rows(radii, values, ok)
    for i, (good, v) in enumerate(zip(ok, values)):
        for est in (hm.extrapolate(radii[good], v[good]), _estimates(cols, [i])[0]):
            oracle = _lstsq_line(radii[good], v[good])
            np.testing.assert_allclose((est.limit, est.slope), oracle[:2], rtol=1e-13)
            np.testing.assert_allclose(est.fit_residual, oracle[2], rtol=1e-13,
                                       atol=1e-13 * abs(oracle[0]))


def test_extrapolating_values_past_the_square_overflow_is_the_scaled_fit():
    # Squared moduli overflow above about 1.3e154; the fit residual of such
    # a row is summed at unit scale, so scaling by 2**600 scales limit, slope
    # and fit residual exactly, with no RuntimeWarning (the suite makes one
    # an error).
    rng = np.random.default_rng(5)
    radii = hm.SweepConfig().radii()
    values = rng.normal(size=radii.size) + 1j * rng.normal(size=radii.size)
    unit = hm.extrapolate(radii, values)
    big = hm.extrapolate(radii, values * 2.0**600)
    assert big.limit == unit.limit * 2.0**600
    assert big.slope == unit.slope * 2.0**600
    assert big.fit_residual == unit.fit_residual * 2.0**600
    assert hm.extrapolate([1, 2, 3], [1e308, -1e308, 1e308]).fit_residual < np.inf


def test_verdicts_on_huge_moduli_leak_no_warning():
    # At p = 1.5 on 1e200 exp every fit residual sums squares past the
    # overflow; the sums are taken at unit scale, and the derivative-detecting
    # limit, of size 4.5e199, is decided as a violation.
    d = hm.power_density(1.5)
    f = lambda zeta: 1e200 * np.exp(zeta)
    z = 0.3 + 0.2j
    (row,) = hm.system_verdict(f, [z], d)
    assert row.status == "violated" and np.isfinite(row.estimate.fit_residual)
    assert hm.extrapolate(hm.sweep("variational", f, z, d)) == row.estimate
    (amvp,) = hm.amvp_verdict(f, [z], d)
    assert np.isfinite(amvp.estimate.fit_residual)
    report = hm.contact_solution_verdict(f, [z], d)
    assert all(np.isfinite(r.fit_residual) for r in report.rows)


def test_verdicts_on_a_huge_affine_field_below_huge_modulus_leak_no_warning():
    # At p = 3 the fit's objective grows like |u|**3, so a row at 1e110
    # overflowed below HUGE_MODULUS; it is now fitted at unit scale, and the
    # limits are 1e110 times those of the unit-scale field, to rounding.
    pts = [0.5 + 0.5j, -0.3 + 0.8j]
    big, unit = hm.make_field("affine:1e110,1e110,0"), hm.make_field("affine:1,1,0")
    for verdict, status in ((hm.system_verdict, "violated"), (hm.amvp_verdict, "fails")):
        for b, u in zip(verdict(big, pts, D3), verdict(unit, pts, D3)):
            assert b.status == u.status == status
            assert b.estimate.limit / 1e110 == pytest.approx(u.estimate.limit, rel=1e-9)


@pytest.mark.parametrize("verdict", (hm.holomorphy_verdict, hm.system_verdict, hm.amvp_verdict))
def test_a_verdict_samples_its_field_in_two_calls(verdict):
    # One call samples every jet stencil, whose centres give f at the points
    # (the untestable test and the pair increment's centre); one call samples
    # every circle of the ladder.
    shapes = []

    def field(zeta):
        shapes.append(np.shape(zeta))
        return np.exp(zeta)

    pts = np.array([0.4 + 0.3j, 0.6 + 0.5j, 0.3 + 0.7j])
    assert repr(verdict(field, pts, D3)) == repr(verdict(np.exp, pts, D3))
    assert shapes == [(3, 5), (8, 3, 64)]


@pytest.mark.parametrize("verdict", (hm.holomorphy_verdict, hm.system_verdict, hm.amvp_verdict,
                                     hm.contact_solution_verdict))
def test_verdicts_need_at_least_one_point(verdict):
    with pytest.raises(InvalidParameterError, match="at least one point"):
        verdict(np.exp, [], D3)


def test_batched_extrapolation_keeps_a_short_ladder_in_its_own_group():
    radii = hm.SweepConfig().radii()
    ok = np.ones((4, radii.size), dtype=bool)
    ok[1, 0] = False
    ok[3, 1:] = False
    values = np.tile((0.3 + 0.1j) + (1.0 - 2.0j) * radii + 0.4 * radii**2, (4, 1))
    values[~ok] = np.nan  # an unusable value is never read
    cols = _extrapolate_rows(radii, values, ok)
    for i, (good, v) in enumerate(zip(ok[:3], values[:3])):
        assert _estimates(cols, [i]) == [hm.extrapolate(radii[good], v[good])]
    assert cols["errors"][:3] == [None] * 3
    assert isinstance(cols["errors"][3], hm.InvalidSweepError)


_HOLE = 0.5 + 0.5j


def _holed_exp(zeta):
    # exp with a NaN disk: circles of radius 0.1 about _HOLE + 0.13 cross it
    zeta = np.asarray(zeta, dtype=complex)
    return np.where(np.abs(zeta - _HOLE) < 0.06, np.nan, np.exp(zeta))


@pytest.mark.parametrize("kind, rows_fn", (
    ("conjugate", hm.asymptotics._holomorphy_rows),
    ("variational", hm.asymptotics._system_rows),
    ("pair_increment", hm.asymptotics._amvp_rows),
))
def test_batched_rows_give_each_point_the_estimate_of_its_own_sweep(kind, rows_fn):
    pts = [0.2 + 0.3j, _HOLE + 0.13, 0.8 + 0.2j]
    sweeps = [hm.sweep(kind, _holed_exp, z, D3) for z in pts]
    assert [len(s.radii) for s in sweeps] == [8, 7, 8]
    rows = rows_fn(_holed_exp, pts, D3)
    for s, row in zip(sweeps, rows):
        radii, values = np.array(s.radii), np.array(s.values)
        if kind == "pair_increment":
            values = values / radii
        assert row.estimate == hm.extrapolate(radii, values)


@pytest.mark.parametrize("rows_fn", (
    hm.asymptotics._holomorphy_rows,
    hm.asymptotics._system_rows,
    hm.asymptotics._amvp_rows,
))
def test_a_point_whose_jet_samples_nan_is_an_error_row_alone(rows_fn):
    z = 0.4 + 0.3j
    step = 1e-5 * (1.0 + abs(z))

    def stencil_hole(zeta):
        # NaN only next to the jet's stencil node z + h, far inside every circle
        zeta = np.asarray(zeta, dtype=complex)
        return np.where(np.abs(zeta - (z + step)) < 1e-7, np.nan, np.exp(zeta))

    pts = [0.2 + 0.6j, z, 0.7 - 0.1j]
    rows = rows_fn(stencil_hole, pts, D3)
    assert isinstance(rows[1], NonFiniteSampleError)
    # the fields agree on every circle, so the neighbours' rows are unchanged
    clean = rows_fn(np.exp, pts, D3)
    assert not isinstance(clean[1], NonFiniteSampleError)
    assert (rows[0], rows[2]) == (clean[0], clean[2])


def test_a_point_whose_conjugate_transform_overflows_is_an_error_row_alone():
    # At p = 1.5 the conjugate's slope grows like |g|^2, so it overflows on
    # every circle about the 1e160 disk's centre, and on none about 0.9+0.9i.
    def huge_disk(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return np.where(np.abs(zeta - (0.3 + 0.2j)) < 0.2, 1e160 * np.exp(zeta), np.exp(zeta))

    d = hm.power_density(1.5)
    huge, normal = hm.asymptotics._holomorphy_rows(huge_disk, [0.3 + 0.2j, 0.9 + 0.9j], d)
    assert isinstance(huge, InsufficientDataError)
    assert "NonFiniteSampleError: conjugate transform is not finite" in str(huge)
    (alone,) = hm.asymptotics._holomorphy_rows(huge_disk, [0.9 + 0.9j], d)
    assert normal.verdict == "holomorphic"
    assert repr(normal) == repr(alone)


@pytest.mark.parametrize("rows_fn, error", (
    (hm.asymptotics._holomorphy_rows, hm.DomainError),
    (hm.asymptotics._system_rows, hm.ZeroFieldError),
    (hm.asymptotics._amvp_rows, hm.ZeroFieldError),
))
def test_a_failing_prediction_is_an_error_row_alone(rows_fn, error, monkeypatch):
    # with no field floor, the zero of z is swept, and its prediction fails
    monkeypatch.setattr(hm.asymptotics, "FIELD_FLOOR", 0.0)
    rows = rows_fn(lambda z: z, [0j, 0.5 + 0j], D2)
    assert isinstance(rows[0], error)
    assert not isinstance(rows[1], hm.HolomeansError)
    assert rows[1] == rows_fn(lambda z: z, [0.5 + 0j], D2)[0]


@pytest.mark.parametrize("f, max_iterations, reason", (
    # a field of the wrong shape fails the whole engine call, so every radius
    (lambda z: np.zeros(3, dtype=complex), hm.means.MAX_NEWTON_ITERATIONS,
     "field returned shape"),
    # with no Newton iteration no fit at p = 3 meets its first-order tolerance
    (np.exp, 0, "solver reported failure"),
))
def test_a_starved_sweep_names_why_its_radii_failed(f, max_iterations, reason, monkeypatch):
    monkeypatch.setattr(hm.means, "MAX_NEWTON_ITERATIONS", max_iterations)
    with pytest.raises(InsufficientDataError, match=f"only 0 of 8 radii.*{reason}"):
        hm.sweep("variational", f, 0.3 + 0.2j, D3)


def test_extrapolate_takes_a_sweep_or_two_arrays_but_not_both():
    sw = hm.sweep("variational", np.exp, 0.4 + 0.1j, D2)
    with pytest.raises(InvalidParameterError, match="pass either a sweep or"):
        hm.extrapolate(sw, sw.values)


def test_amvp_verdict_needs_a_declared_small_argument_law():
    undeclared = dataclasses.replace(D3, small_coeff=float("nan"))
    with pytest.raises(InvalidParameterError, match="declared small-argument behaviour"):
        hm.amvp_verdict(np.exp, [0.3 + 0.2j], undeclared)


def test_verdicts_past_the_overflow_of_f_prime_leak_no_warning():
    # At p = 3, F'(|f|) overflows for |f| above about 1.3e154, so the system's
    # coefficient mu takes the power law's ratio.  The CR residual is then
    # linear in f: on 2**530 exp (about 3.5e159) it is 2**530 times that on exp.
    d = hm.power_density(3)
    scale = 2.0**530
    points = [0.3 + 0.2j, 0.5 + 0.1j]
    big = hm.system_verdict(lambda zeta: scale * np.exp(zeta), points, d)
    unit = hm.system_verdict(np.exp, points, d)
    for b, u in zip(big, unit):
        assert b.status == u.status == "violated"
        assert b.analytic_residual / scale == pytest.approx(u.analytic_residual, rel=1e-12)
    for row in hm.amvp_verdict(lambda zeta: scale * np.exp(zeta), points, d):
        assert np.isfinite(row.bracket) and row.status == "fails"
    report = hm.contact_solution_verdict(lambda zeta: scale * np.exp(zeta), points, d)
    assert all(np.isfinite(r.envelope) for r in report.rows)
