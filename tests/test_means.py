"""Variational circle means: closed forms, invariances, and edge cases."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holomeans as hm
from holomeans.errors import InvalidParameterError
from holomeans.means import _circumcircle, fit_model_coefficient

D2 = hm.power_density(2)
POWERS = (1.5, 2.0, 3.0, 4.0)
Z = 0.4 - 0.3j
R = 0.35


def lstsq_mean(f, z, r, node_count=64):
    """Quadratic-density oracle: weighted linear least squares for c."""
    q = hm.circle_rule(z, r, node_count)
    vals = f(q.nodes)
    m = q.nodes - z
    # minimize sum w |vals - c conj(m)|^2 over complex c
    w = q.weights
    num = np.sum(w * vals * m)
    den = np.sum(w * np.abs(m) ** 2)
    return num / den


def test_variational_mean_matches_least_squares_at_p2(rng):
    for _ in range(10):
        coeff = rng.standard_normal(6)
        f = lambda zeta: (
            coeff[0]
            + coeff[1] * zeta
            + coeff[2] * zeta**2
            + 1j * coeff[3] * np.conj(zeta)
            + coeff[4] * np.abs(zeta) ** 2
            + coeff[5]
        )
        res = hm.variational_circle_mean(f, Z, R, D2)
        assert res.status == "converged"
        oracle = lstsq_mean(f, Z, R)
        assert abs(res.minimizer - oracle) <= 1e-9 * (1.0 + abs(oracle))


def test_center_mean_is_weighted_average_at_p2():
    f = lambda zeta: zeta**2 - np.conj(zeta)
    res = hm.center_circle_mean(f, Z, R, D2)
    q = hm.circle_rule(Z, R, 64)
    avg = np.sum(q.weights * f(q.nodes)) / np.sum(q.weights)
    assert res.status == "converged"
    assert abs(res.minimizer - avg) <= 1e-10 * (1.0 + abs(avg))


@pytest.mark.parametrize("p", POWERS)
def test_pure_conjugate_slope_is_fit_exactly(p):
    # f(zeta) = conj(zeta - z): the model fits with c = 1 and zero defect
    d = hm.power_density(p)
    f = lambda zeta: np.conj(zeta - Z)
    res = hm.variational_circle_mean(f, Z, R, d)
    assert res.status == "converged"
    assert abs(res.minimizer - 1.0) <= 1e-8
    assert res.foc_residual <= 1e-8


@pytest.mark.parametrize("p", POWERS)
def test_constant_field_has_zero_slope_mean(p):
    d = hm.power_density(p)
    f = lambda zeta: np.full(zeta.shape, 2.0 - 1.0j)
    res = hm.variational_circle_mean(f, Z, R, d)
    assert res.status == "converged"
    assert abs(res.minimizer) <= 1e-8


def test_orthogonal_decomposition_at_p2():
    # f = sigma m + tau conj(m): at p = 2 the mean is exactly tau
    sigma, tau = 0.8 - 0.4j, -0.3 + 0.9j
    f = lambda zeta: sigma * (zeta - Z) + tau * np.conj(zeta - Z)
    res = hm.variational_circle_mean(f, Z, R, D2)
    assert abs(res.minimizer - tau) <= 1e-10


@pytest.mark.parametrize("p", (1.5, 3.0))
def test_density_scale_invariance(p):
    # replacing F by 3.7 F moves the objective but not the minimizer
    d = hm.power_density(p)
    scaled = dataclasses.replace(
        d,
        value_fn=lambda s, _f=d.value_fn: 3.7 * _f(s),
        deriv_fn=lambda s, _f=d.deriv_fn: 3.7 * _f(s),
        second_deriv_fn=lambda s, _f=d.second_deriv_fn: 3.7 * _f(s),
        label="scaled",
    )
    f = lambda zeta: np.exp(zeta) + 0.5 * np.conj(zeta)
    a = hm.variational_circle_mean(f, Z, R, d)
    b = hm.variational_circle_mean(f, Z, R, scaled)
    assert abs(a.minimizer - b.minimizer) <= 1e-10 * (1.0 + abs(a.minimizer))


@pytest.mark.parametrize("p", POWERS)
def test_converged_means_meet_first_order_tolerance(p):
    d = hm.power_density(p)
    for f in (np.exp, lambda z: z**2 + np.conj(z), lambda z: np.abs(z) ** 2):
        res = hm.variational_circle_mean(f, Z, R, d)
        assert res.status == "converged"
        assert res.iterations <= 60
        assert np.isfinite(res.foc_residual)


def test_pair_mean_recovers_affine_coefficients_at_p2():
    jet = hm.Jet(base=Z, value=1 + 2j, dz=0.5 - 0.3j, dzbar=-0.7 + 0.4j)
    f = lambda zeta: hm.affine_eval(jet, zeta)
    pm = hm.pair_mean(f, Z, R, D2)
    assert abs(pm.center.minimizer - jet.value) <= 1e-10
    assert abs(pm.slope.minimizer - jet.dzbar) <= 1e-10
    assert pm.value == pytest.approx(
        pm.center.minimizer + pm.slope.minimizer * R, rel=1e-12
    )
    assert pm.radius == R


def test_infinity_mean_of_pure_conjugate_slope():
    f = lambda zeta: np.conj(zeta - Z)
    res = hm.infinity_mean(f, Z, R)
    assert res.status == "converged"
    assert abs(res.minimizer - 1.0) <= 1e-9
    assert res.objective <= 1e-9 * R


def test_infinity_mean_support_and_local_optimality():
    for f in (np.exp, lambda z: z**2 + 0.3 * np.conj(z), np.conj):
        res = hm.infinity_mean(f, Z, R)
        assert res.support_count >= 2
        q = hm.circle_rule(Z, R, 64)
        m = q.nodes - Z

        def objective(c):
            return np.max(np.abs(f(q.nodes) - c * np.conj(m)))

        base = objective(res.minimizer)
        assert base == pytest.approx(res.objective, rel=1e-12, abs=1e-12)
        for k in range(8):
            step = 1e-6 * np.exp(2j * np.pi * k / 8)
            assert objective(res.minimizer + step) >= base - 1e-9


def test_infinity_mean_is_deterministic():
    f = lambda z: z**3 - np.conj(z) ** 2
    a = hm.infinity_mean(f, Z, R, seed=7)
    b = hm.infinity_mean(f, Z, R, seed=7)
    assert a.minimizer == b.minimizer
    assert a.objective == b.objective


def test_zero_field_converges_to_zero():
    f = lambda zeta: np.zeros(zeta.shape, dtype=complex)
    for p in (1.5, 3.0):
        res = hm.variational_circle_mean(f, Z, R, hm.power_density(p))
        assert res.status == "converged"
        assert res.minimizer == 0


def test_solver_reports_finite_diagnostics_under_tiny_budget():
    cfg = hm.SolverConfig(max_iterations=1, max_backtracks=1)
    f = lambda zeta: np.exp(zeta) + np.abs(zeta)
    res = hm.variational_circle_mean(f, Z, R, hm.power_density(1.5), cfg=cfg)
    assert res.status in ("converged", "failed")
    assert np.isfinite(res.foc_residual)
    assert res.iterations >= 0


@pytest.mark.parametrize("max_iterations", (0, 1, 2))
@pytest.mark.parametrize("p", (1.5, 3.0))
def test_iteration_budget_fails_far_rows_and_keeps_rows_at_their_optimum(p, max_iterations, rng):
    # Row 0 is the unit ring, whose constant-model optimum 0 is its start;
    # row 1 starts far from its optimum and needs more Newton steps.
    n = 16
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    far = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fit = fit_model_coefficient(
        hm.power_density(p),
        np.stack([ring, far]),
        np.full(n, 2.0 * np.pi / n),
        np.ones(n, dtype=complex),
        np.array([0j, 3.0 + 3.0j]),
        hm.SolverConfig(max_iterations=max_iterations),
    )
    assert fit["status"].tolist() == [1, 3]
    assert fit["iterations"].tolist() == [0, max_iterations]
    assert fit["minimizer"][0] == 0j


def test_solver_config_refuses_a_negative_iteration_budget():
    with pytest.raises(InvalidParameterError, match="max_iterations must be >= 0"):
        hm.SolverConfig(max_iterations=-1)


@pytest.mark.parametrize("fields, message", (
    # no trial step: every Newton iteration would fail before moving
    ({"max_backtracks": 0}, "max_backtracks must be >= 1, got 0"),
    # a step test that no step can pass, or that every step passes
    ({"step_tol": float("nan")}, "step_tol must be finite and >= 0, got nan"),
    ({"step_tol": -1e-11}, "step_tol must be finite and >= 0, got -1e-11"),
    ({"step_tol": float("inf")}, "step_tol must be finite and >= 0, got inf"),
))
def test_solver_config_refuses_an_empty_line_search_and_a_broken_step_test(fields, message):
    with pytest.raises(InvalidParameterError, match=message):
        hm.SolverConfig(**fields)


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_newton_converges_from_a_residual_exactly_at_zero(p, rng):
    # The initial iterate equals one sample, so one pointwise residual is an
    # exact zero while the gradient is still far from the tolerance.
    samples = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    weights = np.full(16, 1.0 / 16)
    d = hm.power_density(p)
    fit = fit_model_coefficient(
        d, samples[None, :], weights, np.ones(16, dtype=complex), samples[[3]]
    )
    assert fit["status"][0] == 1
    assert fit["iterations"][0] <= 10

    def objective(c):
        return float(np.sum(weights * d.value_fn(np.abs(samples - c))))

    c = complex(fit["minimizer"][0])
    base = objective(c)
    for step in (1e-6, -1e-6, 1e-6j, -1e-6j):
        assert objective(c + step) >= base


def test_conjugate_transformed_mean_rejects_vanishing_field():
    # zero at zeta = 0.2, the first node of the circle rule
    with pytest.raises(hm.ZeroFieldError):
        hm.conjugate_transformed_mean(lambda z: z - 0.2, 0j, 0.2, D2)


def test_conjugate_transformed_mean_at_p2_equals_plain_mean_of_transform():
    # at p = 2 the conjugate profile is again quadratic and the transform
    # t -> G'(|g|) g / |g| is the identity
    g = np.exp
    a = hm.conjugate_transformed_mean(g, Z, R, D2)
    b = hm.variational_circle_mean(g, Z, R, D2)
    assert abs(a.minimizer - b.minimizer) <= 1e-11


@given(
    sre=st.floats(-1.5, 1.5), sim=st.floats(-1.5, 1.5),
    tre=st.floats(-1.5, 1.5), tim=st.floats(-1.5, 1.5),
)
def test_p2_mean_of_affine_fields_is_conj_slope(sre, sim, tre, tim):
    sigma, tau = complex(sre, sim), complex(tre, tim)
    f = lambda zeta: 0.7 + sigma * (zeta - Z) + tau * np.conj(zeta - Z)
    res = hm.variational_circle_mean(f, Z, R, D2)
    assert abs(res.minimizer - tau) <= 1e-9 * (1.0 + abs(tau))


def test_affine_identity_residual_small_for_true_mean():
    jet = hm.Jet(base=Z, value=0.9 + 0.4j, dz=0.3 + 0.2j, dzbar=-0.5 + 0.1j)
    d = hm.power_density(3)
    f = lambda zeta: hm.affine_eval(jet, zeta)
    r = 1e-2
    res = hm.variational_circle_mean(f, Z, r, d)
    ident = hm.affine_mean_identity(jet, r, res.minimizer, d)
    assert ident.residual <= 1e-6
    assert np.isfinite(ident.alpha) and np.isfinite(ident.beta)


def test_line_search_backtracks_from_a_far_start():
    # At p = 1.2 the full Newton step from 10 overshoots: the fit converges
    # only when the line search may shorten it.
    n = 16
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    args = (hm.power_density(1.2), ring[None, :], np.full(n, 2.0 * np.pi / n),
            np.ones(n, dtype=complex), np.array([10.0 + 0j]))
    fit = fit_model_coefficient(*args)
    assert fit["status"].tolist() == [1]
    assert abs(fit["minimizer"][0]) <= 1e-12
    short = fit_model_coefficient(*args, hm.SolverConfig(max_backtracks=1))
    assert short["status"].tolist() == [3]
    assert short["minimizer"][0] == 10.0


def test_fit_and_circle_means_refuse_unusable_input():
    samples = np.ones((1, 4), dtype=complex)
    with pytest.raises(InvalidParameterError, match="bounded away from zero"):
        fit_model_coefficient(D2, samples, np.ones(4), np.array([1, 1j, 0, -1]), np.zeros(1))
    with pytest.raises(InvalidParameterError, match="unknown mean kind 'bogus'"):
        hm.circle_means("bogus", np.exp, [Z], R, D2)
    for r in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="circle radius must be positive"):
            hm.circle_means("variational", np.exp, [Z], r, D2)


def test_circumcircle_of_collinear_points_is_none():
    assert _circumcircle(0j, 1 + 1j, 2 + 2j) is None
    center, radius = _circumcircle(1 + 0j, 1j, -1 + 0j)
    assert abs(center) <= 1e-15
    assert radius == pytest.approx(1.0, rel=1e-15)


def test_affine_identity_refuses_a_vanishing_value_or_too_few_segment_nodes():
    d = hm.power_density(3)
    with pytest.raises(hm.ZeroFieldError, match="at the base point"):
        hm.affine_mean_identity(hm.Jet(Z, 1e-9, 0.3, 0.1), R, 0j, d)
    with pytest.raises(InvalidParameterError, match="at least 4 segment nodes, got 3"):
        hm.affine_mean_identity(hm.Jet(Z, 0.9, 0.3, 0.1), R, 0j, d, radial_nodes=3)


def test_affine_identity_nudges_a_segment_node_off_the_zero():
    # With sigma = tau = 0 the segment argument at the circle node 1 is
    # value - r t c, which vanishes at the second Gauss node t for this c.
    value, r = 0.8 + 0.3j, 0.1
    t = 0.5 * (np.polynomial.legendre.leggauss(4)[0] + 1.0)
    with pytest.warns(RuntimeWarning, match="nudging by a half step"):
        ident = hm.affine_mean_identity(
            hm.Jet(Z, value, 0j, 0j), r, value / (r * t[1]), hm.power_density(3), radial_nodes=4
        )
    assert all(np.isfinite(v) for v in (ident.alpha, ident.beta, ident.gamma, ident.residual))
