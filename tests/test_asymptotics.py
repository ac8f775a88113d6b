"""Radius sweeps, extrapolation to radius zero, and the three verdicts."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holomeans as hm
from holomeans.asymptotics import _extrapolate_rows, _increment_ratios, _sweeps
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
    with pytest.raises(InvalidParameterError):
        hm.sweep("variational", np.exp, 0j, D2, hm.SweepConfig(min_successes=0))


@pytest.mark.parametrize("fields, message", (
    ({"r0": float("nan")}, "r0 must be positive and finite, got nan"),
    ({"r0": float("inf")}, "r0 must be positive and finite, got inf"),
    ({"rho": float("nan")}, "rho must lie in (0, 1), got nan"),
    ({"node_count": 4}, "need at least 8 circle nodes, got 4"),
    ({"min_successes": 0}, "min_successes must be >= 1, got 0"),
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
    with pytest.raises(hm.InvalidSweepError):
        hm.extrapolate(np.array([0.1]), np.array([1.0 + 0j]))


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


@pytest.mark.parametrize("verdict", (hm.holomorphy_verdict, hm.system_verdict, hm.amvp_verdict))
def test_verdicts_need_at_least_one_point(verdict):
    with pytest.raises(InvalidParameterError, match="at least one point"):
        verdict(np.exp, [], D3)


def test_batched_extrapolation_keeps_a_short_ladder_in_its_own_group():
    radii = hm.SweepConfig().radii()
    rows = [radii, radii[1:], radii, radii[:1]]
    values = [(0.3 + 0.1j) + (1.0 - 2.0j) * r + 0.4 * r**2 for r in rows]
    got, _ = _extrapolate_rows(rows, values)
    for r, v, est in zip(rows[:3], values[:3], got[:3]):
        assert est == hm.extrapolate(r, v)
    assert isinstance(got[3], hm.InvalidSweepError)


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
    sweeps = _sweeps(kind, _holed_exp, pts, D3, None)
    assert [len(s.radii) for s in sweeps] == [8, 7, 8]
    rows = rows_fn(_holed_exp, pts, D3)
    for s, row in zip(sweeps, rows):
        series = _increment_ratios(s) if kind == "pair_increment" else (s.radii, s.values)
        assert row.estimate == hm.extrapolate(*series)


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


@pytest.mark.parametrize("f, cfg, reason", (
    # a field of the wrong shape fails the whole engine call, so every radius
    (lambda z: np.zeros(3, dtype=complex), hm.SweepConfig(), "field returned shape"),
    # with no Newton iteration no fit at p = 3 meets its first-order tolerance
    (np.exp, hm.SweepConfig(solver=hm.SolverConfig(max_iterations=0)),
     "solver reported failure"),
))
def test_a_starved_sweep_names_why_its_radii_failed(f, cfg, reason):
    with pytest.raises(InsufficientDataError, match=f"only 0 of 8 radii.*{reason}"):
        hm.sweep("variational", f, 0.3 + 0.2j, D3, cfg)


def test_extrapolate_takes_a_sweep_or_two_arrays_but_not_both():
    sw = hm.sweep("variational", np.exp, 0.4 + 0.1j, D2)
    with pytest.raises(InvalidParameterError, match="pass either a sweep or"):
        hm.extrapolate(sw, sw.values)


def test_amvp_verdict_needs_a_declared_small_argument_law():
    undeclared = dataclasses.replace(D3, small_coeff=float("nan"))
    with pytest.raises(InvalidParameterError, match="declared small-argument behaviour"):
        hm.amvp_verdict(np.exp, [0.3 + 0.2j], undeclared)
