"""Variational circle means: closed forms, invariances, and edge cases."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holomeans as hm
from holomeans.density import _power_law
from holomeans.errors import InvalidParameterError, NonFiniteSampleError
from holomeans.means import (
    MAX_BACKTRACKS,
    _circumcircle,
    _unit_scale_below,
    _unit_scale_from,
    fit_model_coefficient,
)

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


def test_solver_reports_finite_diagnostics_under_tiny_budget(monkeypatch):
    monkeypatch.setattr(hm.means, "MAX_NEWTON_ITERATIONS", 1)
    monkeypatch.setattr(hm.means, "MAX_BACKTRACKS", 1)
    f = lambda zeta: np.exp(zeta) + np.abs(zeta)
    res = hm.variational_circle_mean(f, Z, R, hm.power_density(1.5))
    assert res.status in ("converged", "failed")
    assert np.isfinite(res.foc_residual)
    assert res.iterations >= 0


@pytest.mark.parametrize("max_iterations", (0, 1, 2))
@pytest.mark.parametrize("p", (1.5, 3.0))
def test_iteration_budget_fails_far_rows_and_keeps_rows_at_their_optimum(p, max_iterations, rng,
                                                                         monkeypatch):
    monkeypatch.setattr(hm.means, "MAX_NEWTON_ITERATIONS", max_iterations)
    # Row 0 is the unit ring, whose constant-model optimum 0 is its start;
    # row 1 starts far from its optimum and needs more Newton steps.
    n = 16
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    far = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fit = fit_model_coefficient(
        hm.power_density(p),
        np.stack([ring, far]),
        np.ones(n, dtype=complex),
        np.array([0j, 3.0 + 3.0j]),
    )
    assert fit["status"].tolist() == [1, 3]
    assert fit["iterations"].tolist() == [0, max_iterations]
    assert fit["minimizer"][0] == 0j


@pytest.mark.parametrize("p, loose_error", ((3.0, 1e-9), (4.0, 1e-5)))
def test_the_step_certificate_pins_a_flat_fit_above_growth_exponent_2(p, loose_error,
                                                                      monkeypatch):
    # Samples within 1e-3 of c0 make F = t**p flat near c0 for p > 2: the
    # gradient meets its tolerance while c is still far from c0.  Only the
    # STEP_TOL test on the pending step keeps Newton going to c0.
    n = 32
    c0 = 0.3 + 0.1j
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    args = (hm.power_density(p), (c0 + 1e-3 * ring)[None, :], np.ones(n, dtype=complex),
            np.array([c0 + 0.05]))
    fit = fit_model_coefficient(*args)
    assert fit["status"].tolist() == [1]
    assert abs(fit["minimizer"][0] - c0) <= 1e-15
    monkeypatch.setattr(hm.means, "STEP_TOL", np.inf)
    loose = fit_model_coefficient(*args)
    assert loose["status"].tolist() == [1]
    assert abs(loose["minimizer"][0] - c0) > loose_error


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_newton_converges_from_a_residual_exactly_at_zero(p, rng):
    # The initial iterate equals one sample, so one pointwise residual is an
    # exact zero while the gradient is still far from the tolerance.
    samples = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    d = hm.power_density(p)
    fit = fit_model_coefficient(d, samples[None, :], np.ones(16, dtype=complex), samples[[3]])
    assert fit["status"][0] == 1
    assert fit["iterations"][0] <= 10

    def objective(c):
        return float(np.mean(d.value_fn(np.abs(samples - c))))

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


def test_line_search_backtracks_from_a_far_start(monkeypatch):
    # At p = 1.2 the full Newton step from 10 overshoots: the fit converges
    # only when the line search may shorten it.
    n = 16
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    args = (hm.power_density(1.2), ring[None, :], np.ones(n, dtype=complex),
            np.array([10.0 + 0j]))
    fit = fit_model_coefficient(*args)
    assert fit["status"].tolist() == [1]
    assert abs(fit["minimizer"][0]) <= 1e-12
    monkeypatch.setattr(hm.means, "MAX_BACKTRACKS", 1)
    short = fit_model_coefficient(*args)
    assert short["status"].tolist() == [3]
    assert short["minimizer"][0] == 10.0


def test_fit_and_circle_means_refuse_unusable_input():
    samples = np.ones((1, 4), dtype=complex)
    with pytest.raises(InvalidParameterError, match="bounded away from zero"):
        fit_model_coefficient(D2, samples, np.array([1, 1j, 0, -1]), np.zeros(1))
    with pytest.raises(InvalidParameterError, match="unknown mean kind 'bogus'"):
        hm.circle_means("bogus", np.exp, [Z], R, D2)
    for r in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="circle radius must be positive"):
            hm.circle_means("variational", np.exp, [Z], r, D2)


def test_fit_refuses_a_misshapen_init_and_empty_rows():
    samples, model = np.ones((2, 4), dtype=complex), np.ones(4, dtype=complex)
    for init in (np.zeros(3), 0j):
        with pytest.raises(InvalidParameterError, match="one value per row"):
            fit_model_coefficient(D2, samples, model, init)
    with pytest.raises(InvalidParameterError, match="at least one node"):
        fit_model_coefficient(D2, np.ones((2, 0), dtype=complex), np.ones(0), np.zeros(2))


@pytest.mark.parametrize("where", ("sample", "init"))
@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_fit_refuses_non_finite_samples_and_init(bad, where):
    samples, init = np.ones((2, 4), dtype=complex), np.zeros(2, dtype=complex)
    (samples if where == "sample" else init)[1] = bad
    with pytest.raises(NonFiniteSampleError, match="must be finite"):
        fit_model_coefficient(hm.power_density(3), samples, np.ones(4), init)


def _both_paths_rows(shared):
    """Fit rows for comparing the power-law and the general terms.

    Row 0 is the far start of ``test_line_search_backtracks_from_a_far_start``
    (its model's scale aside), row 1 starts with one residual exactly at
    zero, and the other rows are circles of a non-holomorphic field with
    their quadratic-fit start.
    """
    rng = np.random.default_rng(11)
    rows, n = 6, 16
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    pts = rng.uniform(0.2, 0.8, rows) + 1j * rng.uniform(0.2, 0.8, rows)
    radii = rng.uniform(0.01, 0.1, rows)
    offsets = radii[:, None] * ring
    samples = np.exp(pts[:, None] + offsets) + 0.5 * np.conj(pts[:, None] + offsets) ** 2
    model = np.ones(n, dtype=complex) if shared else np.conj(offsets)
    row_model = np.broadcast_to(model, samples.shape)
    init = np.mean(samples * np.conj(row_model), axis=1) / np.mean(np.abs(row_model) ** 2, axis=1)
    samples[0], init[0] = ring, 10.0 / radii[0] ** (not shared)
    samples[1] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    samples[1, 3] = init[1] * row_model[1, 3]
    return samples, model, init


POWER_LAWS = {str(p): hm.power_density(p) for p in (1.2, 1.5, 2.0, 3.0, 4.0, 8.0)}
# F'(s) = 2 s**2, declared with its coefficient: the kernel scales k by 2.
POWER_LAWS["twice-cubic"] = hm.Density(
    value_fn=lambda s: 2.0 * s**3 / 3.0,
    deriv_fn=lambda s: 2.0 * s**2,
    second_deriv_fn=lambda s: 4.0 * s,
    lambda_lo=2.0,
    lambda_hi=2.0,
    small_exponent=2.0,
    small_coeff=2.0,
    label="twice-cubic",
)


@pytest.mark.parametrize("shared", (True, False))
@pytest.mark.parametrize("name", POWER_LAWS)
def test_power_law_and_general_terms_agree(name, shared):
    # Bounds around the constant ratio are true but not constant, so the
    # same F takes the general terms (value_fn, deriv_fn and
    # second_deriv_fn at |u|) in place of the one-power kernel.
    d = POWER_LAWS[name]
    assert _power_law(d) == (d.small_coeff, d.lambda_lo)
    general = dataclasses.replace(d, lambda_lo=d.lambda_lo - 0.1, lambda_hi=d.lambda_hi + 0.1)
    samples, model, init = _both_paths_rows(shared)
    a = fit_model_coefficient(d, samples, model, init)
    b = fit_model_coefficient(general, samples, model, init)
    assert a["status"].tolist() == b["status"].tolist() == [1] * len(init)
    assert a["iterations"].tolist() == b["iterations"].tolist()
    scale = np.max(np.abs(samples), axis=1) / np.min(np.abs(np.broadcast_to(model, samples.shape)),
                                                      axis=1)
    assert np.all(np.abs(a["minimizer"] - b["minimizer"]) <= 1e-12 * (1.0 + scale))
    if shared:
        # The shared model 1 takes the unit path, which skips the products
        # by the model; one row of ones per row takes the general path.
        # Every output has the same bytes, at either kind of terms, also
        # with a -0.0 part in a sample or in a start, whose sign a product
        # by 1 may flip.
        zero_sample, zero_start = samples.copy(), init.copy()
        zero_sample[2, 5] = complex(zero_sample[2, 5].real, -0.0)
        zero_start[3] = complex(-0.0, zero_start[3].imag)
        for rows, starts in ((samples, init), (zero_sample, init), (samples, zero_start)):
            for dens in (d, general):
                fit = fit_model_coefficient(dens, rows, model, starts)
                per_row = fit_model_coefficient(dens, rows, np.ones(rows.shape, dtype=complex),
                                                starts)
                for key in fit:
                    assert fit[key].tobytes() == per_row[key].tobytes(), (dens.label, key)


@pytest.mark.parametrize("p", (1.5, 3.0, 8.0, "general"))
@pytest.mark.parametrize("shared", (True, False))
def test_a_row_with_an_exact_zero_residual_leaves_the_other_rows_bits(p, shared):
    # Rows 2-5 of _both_paths_rows have no residual below RESIDUAL_FLOOR, so
    # a batch of them takes the fault-free path.  A row whose start is its
    # exact fit puts every residual at zero and sends the batch's
    # evaluations down the floor path; no other row's bytes move.
    d = hm.power_density(3.0 if p == "general" else p)
    if p == "general":
        d = dataclasses.replace(d, lambda_lo=1.9, lambda_hi=2.1)
        assert _power_law(d) is None
    samples, model, init = _both_paths_rows(shared)
    samples, init = samples[2:], init[2:]
    if not shared:
        model = model[2:]
    exact = 0.4 - 0.7j
    with_zero = np.concatenate([samples, exact * np.broadcast_to(model, samples.shape)[:1]])
    models = model if shared else np.concatenate([model, model[:1]])
    alone = fit_model_coefficient(d, samples, model, init)
    both = fit_model_coefficient(d, with_zero, models, np.append(init, exact))
    assert both["status"][-1] == 1 and both["iterations"][-1] == 0
    assert both["minimizer"][-1] == exact and both["foc_residual"][-1] == 0.0
    for key in alone:
        assert both[key][:-1].tobytes() == alone[key].tobytes(), key


@pytest.mark.parametrize("model", ("unit", "shared", "per-row"))
def test_an_empty_batch_returns_empty_columns(model):
    n = 8
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    models = {"unit": np.ones(n), "shared": np.conj(0.1 * ring),
              "per-row": np.ones((0, n), dtype=complex)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_model_coefficient(hm.power_density(3), np.ones((0, n), dtype=complex),
                                    models[model], np.zeros(0, dtype=complex))
    assert sorted(fit) == ["foc_residual", "iterations", "minimizer", "objective", "status"]
    assert all(a.shape == (0,) for a in fit.values())


@pytest.mark.parametrize("p", (255.0, 300.0, 1000.0))
def test_fits_past_the_last_scaled_exponent_stay_finite_without_warnings(p):
    # Past p = 254 no row is scaled (_unit_scale_from is 1): rows of modulus
    # 0.5 to 8 are fitted as they are.  Neither model raises a warning, and
    # every minimizer is finite.  The objective may overflow to inf or
    # underflow to 0 there, and the slope fit may use its whole budget.
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    shape = (0.3 + 0.2j) + 0.7 * ring + 0.2 * np.conj(ring) ** 2
    shape /= np.max(np.abs(shape))
    rows = np.array([0.5, 1.0, 2.0, 4.0, 8.0])[:, None] * shape
    d = hm.power_density(p)
    for model, init in ((np.ones(64), np.mean(rows, axis=1)),
                        (np.conj(0.1 * ring), np.mean(rows * 0.1 * ring, axis=1) / 0.01)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_model_coefficient(d, rows, model, init)
        assert np.all(np.isfinite(fit["minimizer"]))
        assert not np.any(np.isnan(fit["objective"]))


def test_a_row_whose_tolerance_overflows_fails_at_its_start():
    # Past p = 254 a row is fitted at a largest modulus of 1 to 2, where the
    # mean of F'(s) = s**(p - 1) overflows at p = 2000 for a row of modulus
    # 1.5, and of 3 (fitted at 1.5).  The first-order tolerance
    # FOC_TOL_COEFF * (1 + that mean) was inf, and these rows read converged
    # with first-order residuals 1.2e75 and inf.  They fail at their start,
    # as a row past HUGE_MODULUS does at a general density: no iteration,
    # an infinite objective, a NaN residual, the start as minimizer, and no
    # warning.  The row of modulus 1.2 keeps the bits of its own fit.
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    shape = (0.3 + 0.2j) + 0.7 * ring + 0.2 * np.conj(ring) ** 2
    rows = np.array([1.2, 1.5, 3.0])[:, None] * (shape / np.max(np.abs(shape)))
    init = np.mean(rows, axis=1)
    d = hm.power_density(2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_model_coefficient(d, rows, np.ones(64), init)
        alone = fit_model_coefficient(d, rows[:1], np.ones(64), init[:1])
    assert fit["status"].tolist() == [1, 3, 3]
    assert fit["iterations"][1:].tolist() == [0, 0]
    assert np.all(fit["objective"][1:] == np.inf) and np.all(np.isnan(fit["foc_residual"][1:]))
    np.testing.assert_array_equal(fit["minimizer"][1:], init[1:])
    for name in alone:
        assert fit[name][0] == alone[name][0]


@pytest.mark.parametrize("p", (1.2, 1.5, 3.0))
def test_power_law_fit_of_huge_samples_matches_the_unit_scale_fit(p):
    # Squared moduli overflow above about 1.3e154.  A power law is
    # homogeneous, so the fit at 1e160 is the unit-scale fit scaled up; its
    # objective overflows to inf at p = 3.  A row of ordinary scale in the
    # same batch keeps the bits of its own fit.  Both start at half the mean.
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    unit = (0.3 + 0.2j) + 0.1 * ring
    scale = 1e160
    d = hm.power_density(p)
    rows = np.stack([scale * unit, unit])
    fit = fit_model_coefficient(d, rows, np.ones(16), 0.5 * np.mean(rows, axis=1))
    ref = fit_model_coefficient(d, unit[None], np.ones(16), [0.5 * np.mean(unit)])
    assert fit["status"].tolist() == [1, 1]
    assert fit["iterations"][0] > 0
    for name in ref:
        assert fit[name][1] == ref[name][0]
    np.testing.assert_allclose(fit["minimizer"][0] / scale, ref["minimizer"][0], rtol=1e-10)
    log_objective = np.log(ref["objective"][0]) + p * np.log(scale)
    if log_objective < np.log(np.finfo(float).max):
        np.testing.assert_allclose(np.log(fit["objective"][0]), log_objective, rtol=1e-12)
    else:
        assert fit["objective"][0] == np.inf


@pytest.mark.parametrize("p", (1.5, 3.0, 8.0, 20.0))
def test_power_law_rows_past_their_exponent_fit_at_unit_scale_without_overflow(p):
    # The objective grows like |u|**p and the Hessian denominator like
    # |u|**(2p - 4), so at p = 3 a row at 1e110 overflowed the objective and
    # at p = 8 one near 1e38 the denominator, below HUGE_MODULUS.  Every row
    # now converges with no RuntimeWarning.  A row past the threshold of its
    # exponent is the unit-scale fit scaled back by its power of two, bit for
    # bit; a row below it keeps its own fit, which agrees to rounding.
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    unit = (0.3 + 0.2j) + 0.7 * ring + 0.2 * np.conj(ring) ** 2
    model = np.conj(0.1 * ring)
    d, alpha = hm.power_density(p), p - 1.0
    for modulus in (1e30, 1e60, 1e110, 1e150):
        row = modulus * unit
        init = np.mean(row * 0.1 * ring) / 0.01  # the quadratic closed form
        e = int(np.frexp(max(np.max(np.abs(row)), abs(init) * 0.1))[1]) - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_model_coefficient(d, row[None], model, [init])
            ref = fit_model_coefficient(d, row[None] * 2.0**-e, model, [init * 2.0**-e])
        assert fit["status"][0] == ref["status"][0] == 1, modulus
        with np.errstate(over="ignore"):
            objective = np.exp2(np.log2(ref["objective"][0]) + e * p)
            foc = np.exp2(np.log2(ref["foc_residual"][0]) + e * alpha)
        if 2.0**e >= _unit_scale_from(alpha):
            assert fit["minimizer"][0] == ref["minimizer"][0] * 2.0**e, modulus
            assert fit["iterations"][0] == ref["iterations"][0]
            assert fit["objective"][0] == objective and fit["foc_residual"][0] == foc
        else:
            np.testing.assert_allclose(fit["minimizer"][0] * 2.0**-e, ref["minimizer"][0],
                                       rtol=1e-10)
            np.testing.assert_allclose(fit["objective"][0], objective, rtol=1e-10)


@pytest.mark.parametrize("p", (1.5, 3.0, 8.0, 20.0))
@pytest.mark.parametrize("modulus", (1e-10, 1e-20, 1e-40, 1e-80))
def test_tiny_power_law_rows_fit_at_unit_scale(p, modulus):
    # The fit's absolute tolerances used to decide such rows: at p = 3 a row
    # at 1e-20 came back as its start 0, converged after no iteration, and at
    # p = 20 a row at 1e-10 failed at its start as its Hessian underflowed.
    # Each row is now its unit-scale fit scaled back by its power of two.
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    row = modulus * ((0.3 + 0.2j) + 0.7 * ring + 0.2 * np.conj(ring) ** 2)
    model = np.conj(0.1 * ring)
    d, alpha = hm.power_density(p), p - 1.0
    e = int(np.frexp(np.max(np.abs(row)))[1]) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_model_coefficient(d, row[None], model, [0j])
        ref = fit_model_coefficient(d, row[None] * 2.0**-e, model, [0j])
        objective = np.exp2(np.log2(ref["objective"][0]) + e * p)
        foc = np.exp2(np.log2(ref["foc_residual"][0]) + e * alpha)
    assert fit["status"][0] == ref["status"][0] == 1
    assert fit["iterations"][0] == ref["iterations"][0] > 0
    assert fit["minimizer"][0] == ref["minimizer"][0] * 2.0**e
    assert fit["objective"][0] == objective and fit["foc_residual"][0] == foc
    unit = fit_model_coefficient(d, row[None] / modulus, model, [0j])
    np.testing.assert_allclose(fit["minimizer"][0] / modulus, unit["minimizer"][0], rtol=1e-9)


def test_the_unit_scale_threshold_keeps_the_fit_finite():
    # (4 * threshold)**q stays below 2**1008 for the growth exponent q of the
    # fit's largest terms up to alpha = 253, where q = 504.  Past it no
    # threshold of at least 1 keeps that bound, and the threshold stays at 1,
    # so a row is never scaled up.  It never exceeds HUGE_MODULUS.
    for alpha in (0.1, 0.5, 1.0, 2.0, 3.0, 7.0, 19.0, 59.0, 252.0, 253.0, 253.5, 300.0, 1e4):
        q = max(alpha + 1.0, 2.0 * alpha - 2.0)
        threshold = _unit_scale_from(alpha)
        assert 1.0 <= threshold <= hm.means.HUGE_MODULUS
        if q <= 504.0:
            assert (np.log2(threshold) + 2.0) * q <= 1008.0
        else:
            assert threshold == 1.0
    assert _unit_scale_from(1.0) == hm.means.HUGE_MODULUS
    assert _unit_scale_from(169.0) == 2.0 and _unit_scale_from(170.0) == 1.0
    # The low side mirrors it, and never passes TINY_MODULUS or 1: the
    # terms stay above 2**-1008 at residuals down to a quarter of it.
    for alpha in (0.1, 0.5, 1.0, 2.0, 19.0, 59.0, 253.0, 300.0):
        q = max(alpha + 1.0, 2.0 * alpha - 2.0)
        below = _unit_scale_below(alpha)
        assert hm.means.TINY_MODULUS <= below <= 1.0
        assert (2.0 - np.log2(below)) * q <= 1008.0 or below == 1.0
    assert _unit_scale_below(2.0) == hm.means.TINY_MODULUS
    assert _unit_scale_below(59.0) == 2.0**-6 and _unit_scale_below(300.0) == 1.0


def test_general_kernel_rows_past_huge_modulus_fail_unevaluated():
    # Bounds around the constant ratio make p = 1.5 take the general terms,
    # whose F, F' and F'' overflow on a row at 1e160.  That row fails at its
    # start with no RuntimeWarning (the suite makes one an error), and a row
    # of ordinary scale in the same batch keeps the bits of its own fit.
    general = dataclasses.replace(hm.power_density(1.5), lambda_lo=0.4, lambda_hi=0.6)
    assert _power_law(general) is None
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    unit = (0.3 + 0.2j) + 0.1 * ring
    rows = np.stack([1e160 * unit, unit])
    init = 0.5 * np.mean(rows, axis=1)
    fit = fit_model_coefficient(general, rows, np.ones(16), init)
    ref = fit_model_coefficient(general, unit[None], np.ones(16), init[1:])
    assert fit["status"].tolist() == [3, 1]
    assert fit["iterations"][0] == 0
    assert fit["minimizer"][0] == init[0]
    assert fit["objective"][0] == np.inf and np.isnan(fit["foc_residual"][0])
    for name in ref:
        assert fit[name][1] == ref[name][0]


def test_general_kernel_rows_past_huge_modulus_fail_unevaluated_with_per_row_models():
    # The same at p = 3 with one model per row, as the ladder's slope fits
    # have: the huge middle row leaves with its own model, and the rows on
    # either side keep the bits of their one-row fits.
    general = dataclasses.replace(hm.power_density(3), lambda_lo=1.9, lambda_hi=2.1)
    assert _power_law(general) is None
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    offsets = np.array([0.1, 0.2, 0.3])[:, None] * ring
    rows = (0.3 + 0.2j) + 0.7 * offsets + 0.2 * np.conj(offsets) ** 2
    rows[1] *= 1e200
    model = np.conj(offsets)
    init = np.mean(rows * offsets, axis=1) / np.array([0.1, 0.2, 0.3]) ** 2
    fit = fit_model_coefficient(general, rows, model, init)
    assert fit["status"].tolist() == [1, 3, 1]
    assert fit["iterations"][1] == 0
    assert fit["minimizer"][1] == init[1]
    assert fit["objective"][1] == np.inf and np.isnan(fit["foc_residual"][1])
    for i in (0, 2):
        ref = fit_model_coefficient(general, rows[i:i + 1], model[i], init[i:i + 1])
        for name in ref:
            assert fit[name][i] == ref[name][0]


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


def _mixed_fit_rows(model, far, outlier):
    """A batch of rows that leave the Newton loop in different ways.

    Returns ``(samples, init)`` for the (rows, nodes) ``model``: rows 0-1
    are exact fits started at their solution, so they settle at iteration
    0; rows 2-4 lie near a fit and converge in a few steps; row 5 starts
    ``far`` from an exact fit, where the degenerate Hessian of p > 2 (or the
    overshoot of p < 2) slows it until the budget ends; row 6 has one node
    of modulus ``outlier``.
    """
    ring = np.exp(2j * np.pi * np.arange(32) / 32)
    rng = np.random.default_rng(11)
    noise = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
    c = np.array([0.7 - 0.2j, -1.5 + 0.25j, 0.3 + 0.1j, 2.0 - 1.0j, -0.4j])
    samples = np.concatenate([
        c[:2, None] * model[:2],
        c[2:, None] * model[2:5] + np.array([0.3, 1.0, 3.0])[:, None] * noise,
        (0.7 - 0.2j) * model[5:6] + 1e-12 * noise[:1],
        np.exp(0.3 + 0.1 * ring)[None],
    ])
    samples[6, 3] = outlier
    return samples, np.concatenate([c, [0.7 - 0.2j + far, 1.0]])


@pytest.mark.parametrize("p", (1.5, 3.0, 8.0, "general"))
@pytest.mark.parametrize("shared", (True, False))
def test_rows_leave_the_fit_with_their_own_bits(p, shared):
    # Rows that stop or have no usable step leave before the line search,
    # and rows whose line search runs out of backtracks leave after it.
    # Every row must come out as it does when fitted alone.  "general" is
    # the p = 3 density with bounds around its ratio and an F that is NaN
    # above 1e30: it takes the general kernel, and no step of row 6 (NaN
    # objective) passes its line search.
    calls = []
    if p == "general":
        def value(s):
            calls.append(s.shape)
            return np.where(s > 1e30, np.nan, s**3 / 3)

        d = dataclasses.replace(hm.power_density(3), lambda_lo=1.9, lambda_hi=2.1,
                                value_fn=value)
        assert _power_law(d) is None
    else:
        d = hm.power_density(p)
    model = np.conj(0.1 * np.exp(2j * np.pi * np.arange(32) / 32))
    models = model * np.linspace(1.0, 2.0, 7)[:, None]
    if shared:
        models[:] = model
    far = {1.5: 1e6, 3.0: 1e10, 8.0: 1.0}.get(p, 1e10)
    samples, init = _mixed_fit_rows(models, far, 1e31 if p == "general" else 10.0)

    def fit_rows(rows):
        return fit_model_coefficient(d, samples[rows], model if shared else models[rows],
                                     init[rows])

    fit = fit_rows(slice(None))
    for i in range(len(samples)):
        calls.clear()
        alone = fit_rows(slice(i, i + 1))
        for name in fit:
            assert fit[name][i].tobytes() == alone[name][0].tobytes(), (i, name)
    iterations, status = fit["iterations"].tolist(), fit["status"].tolist()
    assert iterations[:2] == [0, 0] and status[:2] == [1, 1]
    assert all(1 <= it <= 4 for it in iterations[2:5]) and status[2:5] == [1, 1, 1]
    assert iterations[5] == 60
    if p == "general":
        # Row 6 alone: F at its start, then every step its line search tries.
        # It fails at its pre-step iterate, the start.
        assert status[6] == 3 and iterations[6] == 0
        assert fit["minimizer"][6] == init[6]
        assert len(calls) == 1 + MAX_BACKTRACKS
        # Rows that settle at their start never reach the line search.
        calls.clear()
        fit_rows(slice(0, 2))
        assert len(calls) == 1
