"""The batched circle-mean engine: multi-point calls against one-point calls."""

import numpy as np
import pytest

import holomeans as hm
from holomeans.asymptotics import _SWEEP_MEANS, _failures, _sweeps
from holomeans.errors import (
    InsufficientDataError,
    InvalidParameterError,
    NonFiniteSampleError,
    ZeroFieldError,
)
from holomeans.means import _ladder_means, fit_model_coefficient

D3 = hm.power_density(3)
PHARM = hm.make_field("pharm-radial:3")
_RNG = np.random.default_rng(7)
POINTS = _RNG.uniform(0.2, 0.8, 10) + 1j * _RNG.uniform(0.2, 0.8, 10)


@pytest.mark.parametrize(
    "verdict, field, decision, numbers",
    [
        (hm.holomorphy_verdict, np.exp, "verdict", ("predicted_limit", "prediction_gap")),
        (hm.system_verdict, PHARM, "status", ("analytic_residual",)),
        (hm.amvp_verdict, PHARM, "status", ("bracket", "bracket_gap")),
    ],
)
def test_multi_point_verdict_rows_match_one_point_calls(verdict, field, decision, numbers):
    rows = verdict(field, POINTS, D3)
    assert len(rows) == POINTS.size
    for z, row in zip(POINTS, rows):
        (one,) = verdict(field, z, D3)
        assert row.point == one.point
        assert getattr(row, decision) == getattr(one, decision)
        assert row.consistent == one.consistent
        assert row.estimate == one.estimate
        for name in numbers:
            assert getattr(row, name) == getattr(one, name)


def test_multi_point_contact_rows_match_one_point_calls():
    report = hm.contact_solution_verdict(PHARM, POINTS, D3, 4)
    assert len(report.rows) == 4 * POINTS.size
    for k, z in enumerate(POINTS):
        one = hm.contact_solution_verdict(PHARM, z, D3, 4)
        for row, ref in zip(report.rows[4 * k:4 * k + 4], one.rows):
            assert (row.point, row.xi, row.status, row.consistent) == (
                ref.point, ref.xi, ref.status, ref.consistent
            )
            for name in ("limit", "fit_residual", "envelope", "envelope_gap"):
                assert getattr(row, name) == getattr(ref, name)


def _nan_near_half(zeta):
    zeta = np.asarray(zeta, dtype=complex)
    return np.where(np.abs(zeta - 0.5) < 0.06, np.nan, np.exp(zeta))


def _columns(cols):
    """The numeric engine columns, the pair mean's center and slope columns flattened."""
    out = {}
    for name, col in cols.items():
        if isinstance(col, dict):
            out.update({f"{name}.{k}": v for k, v in _columns(col).items()})
        elif name != "errors":
            out[name] = col
    return out


@pytest.mark.parametrize("kind", hm.means.MEAN_KINDS)
def test_a_failing_row_leaves_the_live_rows_the_bits_of_an_all_live_call(kind):
    # Two radii at three points: only the middle point's circle of radius
    # 0.05 lies in the NaN disk.  That slot keeps its own error and the fill
    # values; the five live rows have the bits of calls in which every row is
    # live.
    d = None if kind == "infinity" else D3
    pts = np.array([-0.3 + 0.2j, 0.5 + 0j, 0.2 + 0.6j])
    cols = _ladder_means(kind, _nan_near_half, pts, [0.1, 0.05], d)
    assert [e is None for e in cols["errors"].ravel()] == [True] * 4 + [False, True]
    (one,) = hm.circle_means(kind, _nan_near_half, [0.5], 0.05, d)
    assert type(cols["errors"][1, 1]) is NonFiniteSampleError
    assert str(cols["errors"][1, 1]) == str(one)
    sides = _columns(_ladder_means(kind, _nan_near_half, pts[[0, 2]], [0.1, 0.05], d))
    middle = _columns(_ladder_means(kind, _nan_near_half, pts[1:2], [0.1], d))
    for name, col in _columns(cols).items():
        assert col[:, [0, 2]].tobytes() == sides[name].tobytes(), name
        assert col[:1, 1].tobytes() == middle[name].tobytes(), name
        if name.endswith("status"):
            assert col[1, 1] == 3
        elif col.dtype.kind in "fc":
            assert np.isnan(col[1, 1]), name
        else:
            assert col[1, 1] == 0, name


def test_non_finite_circle_fails_only_its_point():
    pts = [0.5 + 0j, -0.3 + 0.2j]
    bad, good = hm.circle_means("variational", _nan_near_half, pts, 0.05, D3)
    with pytest.raises(NonFiniteSampleError) as one:
        hm.variational_circle_mean(_nan_near_half, pts[0], 0.05, D3)
    assert type(bad) is NonFiniteSampleError
    assert str(bad) == str(one.value)
    assert good == hm.variational_circle_mean(_nan_near_half, pts[1], 0.05, D3)


def test_zero_field_under_conjugate_transform_fails_only_its_point():
    def shifted(zeta):
        # vanishes exactly at the first node of the circle of radius 0.1 at 0.5
        return np.asarray(zeta, dtype=complex) - (0.5 + 0.1)

    pts = [0.5 + 0j, -0.3 + 0.2j]
    bad, good = hm.circle_means("conjugate", shifted, pts, 0.1, D3)
    with pytest.raises(ZeroFieldError) as one:
        hm.conjugate_transformed_mean(shifted, pts[0], 0.1, D3)
    assert type(bad) is ZeroFieldError
    assert str(bad) == str(one.value)
    assert good == hm.conjugate_transformed_mean(shifted, pts[1], 0.1, D3)


def test_radius_below_float_resolution_fails_only_its_point():
    # At 1e6 a radius of 1e-12 is lost in rounding at the first node, so the
    # slope model vanishes there.
    pts = [1e6 + 0j, 0.5 + 0.5j]
    bad, good = hm.circle_means("pair", lambda z: z + 1.0, pts, 1e-12, D3)
    with pytest.raises(InvalidParameterError) as one:
        hm.pair_mean(lambda z: z + 1.0, pts[0], 1e-12, D3)
    assert type(bad) is InvalidParameterError
    assert str(bad) == str(one.value)
    assert good.status == "converged"


def _point_sweeps(kind, f, points, d, cfg):
    """Per point of one multi-point sweep: its usable radii, values and failures."""
    radii, cols, values, ok, _ = _sweeps(kind, f, points, d, cfg)
    return [(tuple(radii[good].tolist()), tuple(v[good].tolist()),
             tuple(_failures(radii, errors, good)))
            for v, good, errors in zip(values, ok, cols["errors"].T)]


@pytest.mark.parametrize("kind", hm.asymptotics.SWEEP_KINDS)
def test_sweep_failures_are_per_point_and_match_one_point_sweeps(kind, monkeypatch):
    monkeypatch.setattr(hm.asymptotics, "MIN_SUCCESSES", 1)
    cfg = hm.SweepConfig()
    d = None if kind == "infinity" else D3
    # The first point's larger circles cross the NaN disk; the field is
    # finite at the point itself, so its pair increments have a base value.
    pts = [0.5 + 0.07j, -0.3 + 0.2j]
    starved, clean = _point_sweeps(kind, _nan_near_half, pts, d, cfg)
    one = hm.sweep(kind, _nan_near_half, pts[0], d, cfg)
    assert starved[2]
    assert starved == (one.radii, one.values, one.failures)
    assert not clean[2]
    assert len(clean[1]) == cfg.count


def _per_radius_sweeps(kind, f, points, d, cfg):
    """Per point: (radius, value, status) rows and failures, one radius per call."""
    center = f(np.asarray(points))
    rows = [[] for _ in points]
    failures = [[] for _ in points]
    for r in cfg.radii():
        results = hm.circle_means(_SWEEP_MEANS[kind], f, points, r, d,
                                  hm.geometry.DEFAULT_CIRCLE_NODES, cfg.seed)
        for i, res in enumerate(results):
            if isinstance(res, hm.HolomeansError):
                failures[i].append((float(r), f"{type(res).__name__}: {res}"))
            elif res.status == "failed":
                failures[i].append((float(r), "solver reported failure"))
            else:
                value = res.value - center[i] if kind == "pair_increment" else res.minimizer
                rows[i].append((float(r), value, res.status))
    return rows, failures


@pytest.mark.parametrize("kind", hm.asymptotics.SWEEP_KINDS)
def test_one_call_sweep_matches_a_per_radius_loop(kind, monkeypatch):
    # The circles of the last point cross the NaN disk at the larger radii
    # and stay clear of it at the smaller ones.
    monkeypatch.setattr(hm.asymptotics, "MIN_SUCCESSES", 1)
    cfg = hm.SweepConfig()
    d = None if kind == "infinity" else D3
    pts = list(POINTS) + [0.5 + 0.07j]
    sweeps = _point_sweeps(kind, _nan_near_half, pts, d, cfg)
    rows, failures = _per_radius_sweeps(kind, _nan_near_half, pts, d, cfg)
    assert failures[-1]
    for (radii, values, failed), ref, ref_failed in zip(sweeps, rows, failures):
        assert failed == tuple(ref_failed)
        assert radii == tuple(r for r, _, _ in ref)
        assert {status for _, _, status in ref} <= {"converged"}
        assert values == tuple(b for _, b, _ in ref)


def test_non_finite_sample_fails_only_its_radius_and_point():
    node = complex(0.5 + 0.1)  # the first node of the r = 0.1 circle at 0.5

    def f(zeta):
        return np.where(zeta == node, np.nan, np.exp(zeta))

    pts, radii = [0.5 + 0j, -0.3 + 0.2j], [0.1, 0.05]
    cols = _ladder_means("variational", f, pts, radii, D3)
    (one, _) = hm.circle_means("variational", f, pts, 0.1, D3)
    bad, *others = cols["errors"].ravel()
    assert type(bad) is NonFiniteSampleError
    assert str(bad) == str(one)
    assert others == [None] * 3
    assert cols["status"].ravel().tolist() == [3, 1, 1, 1]


def test_radius_below_float_resolution_fails_only_its_row():
    pts, radii = [1e6 + 0j, 0.5 + 0.5j], [1e-3, 1e-12]
    cols = _ladder_means("pair", lambda z: z + 1.0, pts, radii, D3)
    *coarse, bad, fine = cols["errors"].ravel()
    assert type(bad) is InvalidParameterError
    assert str(bad) == "model weights must be bounded away from zero"
    assert coarse + [fine] == [None] * 3
    assert cols["status"].ravel().tolist() == [1, 1, 3, 1]


def test_zero_field_sweep_failure_reason_matches_one_point_sweep(monkeypatch):
    def shifted(zeta):
        return np.asarray(zeta, dtype=complex) - (0.5 + 0.1)

    monkeypatch.setattr(hm.asymptotics, "MIN_SUCCESSES", 1)
    cfg = hm.SweepConfig()
    starved, clean = _point_sweeps("conjugate", shifted, [0.5 + 0j, -0.3 + 0.2j], D3, cfg)
    (reason,) = [why for r, why in starved[2] if r == 0.1]
    assert reason.startswith("ZeroFieldError: ")
    assert starved[2] == hm.sweep("conjugate", shifted, 0.5, D3, cfg).failures
    assert not clean[2]


def test_pair_mean_is_two_single_model_solves():
    def f(zeta):
        return np.exp(zeta) + 0.3 * np.conj(zeta) ** 2

    z, r = 0.3 + 0.1j, 0.2
    res = hm.pair_mean(f, z, r, D3)
    assert res.center == hm.center_circle_mean(f, z, r, D3)
    assert res.slope == hm.variational_circle_mean(f, z, r, D3)
    assert res.value == res.center.minimizer + r * res.slope.minimizer


def test_a_ladder_shorter_than_min_successes_is_refused_when_built(monkeypatch):
    with pytest.raises(InvalidParameterError, match="count must be >= 4, got 3"):
        hm.SweepConfig(count=3)
    monkeypatch.setattr(hm.asymptotics, "MIN_SUCCESSES", 9)
    with pytest.raises(InvalidParameterError, match="count must be >= 9, got 8"):
        hm.SweepConfig()


def test_verdicts_raise_a_starved_point_that_the_rows_keep(monkeypatch):
    # the r = 0.1 circle at -0.1 has a node on the origin, where PHARM is NaN
    pts = [-0.1 + 0j, 0.5 + 0.2j]
    monkeypatch.setattr(hm.asymptotics, "MIN_SUCCESSES", 8)
    cfg = hm.SweepConfig()
    for verdict, rows_fn in (
        (hm.holomorphy_verdict, hm.asymptotics._holomorphy_rows),
        (hm.system_verdict, hm.asymptotics._system_rows),
        (hm.amvp_verdict, hm.asymptotics._amvp_rows),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(InsufficientDataError):
                verdict(PHARM, pts, D3, cfg)
            starved, clean = rows_fn(PHARM, pts, D3, cfg)
        assert isinstance(starved, InsufficientDataError)
        assert clean.point == pts[1] and clean.estimate is not None


def test_fit_model_coefficient_accepts_one_model_per_row():
    q = hm.circle_rule(0j, 0.2, 16)
    pts = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    nodes = pts[:, None] + q.nodes[None, :]
    samples = np.exp(nodes)
    model = np.conj(nodes - pts[:, None])
    init = np.zeros(2, dtype=complex)
    both = fit_model_coefficient(D3, samples, model, init)
    for i in range(2):
        one = fit_model_coefficient(D3, samples[i:i + 1], model[i], init[i:i + 1])
        assert both["minimizer"][i] == one["minimizer"][0]
        assert both["status"][i] == one["status"][0] == 1
    with pytest.raises(InvalidParameterError):
        fit_model_coefficient(D3, samples, model[:1], init)


FIT_OUTPUTS = ("minimizer", "objective", "foc_residual", "iterations", "status")


@pytest.mark.parametrize("shared", (True, False))
@pytest.mark.parametrize("p", (1.2, 1.5, 3.0, 4.0))
def test_a_fit_row_has_the_same_bits_alone_in_its_batch_and_permuted(p, shared):
    # Circles of 16 radii at 16 points of a non-holomorphic field; a shared
    # constant model or each row's own slope model.
    rng = np.random.default_rng(5)
    rows, n = 16, hm.geometry.DEFAULT_CIRCLE_NODES
    pts = rng.uniform(0.2, 0.8, rows) + 1j * rng.uniform(0.2, 0.8, rows)
    radii = rng.uniform(0.01, 0.1, rows)
    offsets = radii[:, None] * np.exp(2j * np.pi * np.arange(n) / n)
    samples = np.exp(pts[:, None] + offsets) + 0.5 * np.conj(pts[:, None] + offsets) ** 2
    if shared:
        model, init = np.ones(n, dtype=complex), np.zeros(rows, dtype=complex)
    else:
        model, init = np.conj(offsets), np.mean(samples * offsets, axis=1) / radii**2

    def fit(rows):
        return fit_model_coefficient(hm.power_density(p), samples[rows],
                                     model if shared else model[rows], init[rows])

    perm = rng.permutation(rows)
    batch, permuted = fit(np.arange(rows)), fit(perm)
    for i in range(rows):
        alone = fit([i])
        k = int(np.flatnonzero(perm == i)[0])
        for name in FIT_OUTPUTS:
            assert alone[name][0] == batch[name][i] == permuted[name][k], (i, name)
