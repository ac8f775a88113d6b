"""Grid fixed-point iteration: geometry, interpolation, checkpoints, solves."""

import re
from dataclasses import replace

import numpy as np
import pytest

import holomeans as hm
from holomeans.errors import (
    ConfigError,
    DivergenceError,
    InvalidParameterError,
)
from holomeans.means import fit_model_coefficient
from holomeans.pdesystem import FIELD_FLOOR

D2 = hm.power_density(2)


def small_grid(h=0.1, r=0.2, f=np.exp):
    return hm.grid_from_function(0.0, 0.4, 0.0, 0.4, h, r, f)


def test_grid_shape_and_axes():
    g = hm.make_grid(0.0, 0.2, 0.0, 0.3, 0.1, 0.15)
    # strip is ceil(r / h) + 1 = 3 extra layers on every side
    assert g.strip_cells == 3
    nx, ny = g.shape
    assert nx == 3 + 2 * 3
    assert ny == 4 + 2 * 3
    assert g.values.shape == (ny, nx)
    xs, ys = g.xs, g.ys
    assert xs[0] == pytest.approx(-0.3)
    assert xs[-1] == pytest.approx(0.5)
    assert ys[0] == pytest.approx(-0.3)
    assert ys[-1] == pytest.approx(0.6)
    np.testing.assert_allclose(np.diff(xs), 0.1, rtol=1e-12)


def test_interior_mask_is_the_closed_rectangle():
    g = hm.make_grid(0.0, 0.2, 0.0, 0.3, 0.1, 0.15)
    mask = g.interior_mask()
    assert mask.sum() == 3 * 4
    assert mask.shape == g.values.shape
    pts = g.points()
    inside = pts[mask]
    assert np.all(inside.real >= -1e-12) and np.all(inside.real <= 0.2 + 1e-12)
    assert np.all(inside.imag >= -1e-12) and np.all(inside.imag <= 0.3 + 1e-12)
    outside = pts[~mask]
    eps = 1e-12
    assert np.all(
        (outside.real < -eps)
        | (outside.real > 0.2 + eps)
        | (outside.imag < -eps)
        | (outside.imag > 0.3 + eps)
    )


def test_grid_from_function_samples_everywhere():
    g = small_grid()
    np.testing.assert_allclose(g.values, np.exp(g.points()), rtol=1e-15)


def test_with_interior_touches_only_unknowns():
    g = small_grid()
    filled = hm.with_interior(g, 7 - 2j)
    mask = g.interior_mask()
    assert np.all(filled.values[mask] == 7 - 2j)
    np.testing.assert_array_equal(filled.values[~mask], g.values[~mask])


def test_geometry_validation():
    with pytest.raises(InvalidParameterError):
        hm.make_grid(0.0, 0.0, 0.0, 1.0, 0.1, 0.15)  # empty x-range
    with pytest.raises(InvalidParameterError):
        hm.make_grid(0.0, 1.0, 0.0, 1.0, -0.1, 0.15)  # bad spacing
    with pytest.raises(InvalidParameterError):
        hm.make_grid(0.0, 1.0, 0.0, 1.0, 0.1, 0.0)  # bad radius
    with pytest.raises(InvalidParameterError):
        hm.make_grid(0.0, 1.05, 0.0, 1.0, 0.1, 0.15)  # off-lattice extent


def test_interpolation_is_exact_on_bilinear_functions(rng):
    a, b, c, dd = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def bilin(z):
        return a + b * z.real + c * z.imag + dd * z.real * z.imag

    g = hm.grid_from_function(0.0, 0.4, 0.0, 0.4, 0.1, 0.15, bilin)
    pts = (
        rng.uniform(-0.1, 0.5, 40) + 1j * rng.uniform(-0.1, 0.5, 40)
    )  # stay inside the padded lattice
    got = hm.interpolate(g, pts)
    np.testing.assert_allclose(got, bilin(pts), rtol=0, atol=1e-12)


def test_interpolation_rejects_points_off_the_lattice():
    g = small_grid()
    with pytest.raises(InvalidParameterError):
        hm.interpolate(g, np.array([10.0 + 0j]))


def test_checkpoint_round_trip(tmp_path):
    g = small_grid()
    g = hm.with_interior(g, 0.25 + 0.5j)
    path = tmp_path / "state.csv"
    hm.write_checkpoint(g, path, extra_header=("note = round trip",))
    back = hm.read_checkpoint(path)
    assert back.shape == g.shape
    assert back.strip_cells == g.strip_cells
    assert back.h == pytest.approx(g.h, rel=1e-15)
    np.testing.assert_array_equal(back.values, g.values)
    np.testing.assert_array_equal(back.frozen, g.frozen)
    text = path.read_text()
    assert "note = round trip" in text


def test_checkpoint_rejects_corrupt_file(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("x,y,re,im,flag\n0,0,1,0,1\n")
    with pytest.raises((ConfigError, hm.HolomeansError)):
        hm.read_checkpoint(path)
    # right lattice and row count, but every row lacks its flag column
    lattice = "# lattice x0=0 x1=0.1 y0=0 y1=0.1 h=0.1 strip=1\nx,y,re,im,flag\n"
    path.write_text(lattice + "0,0,1,0\n" * 16)
    with pytest.raises(hm.HolomeansError):
        hm.read_checkpoint(path)


def test_constant_data_is_a_fixed_point():
    # a constant grid is a fixed point: the variational mean of constant
    # circle samples is that constant, so the iteration settles immediately
    g = hm.grid_from_function(
        0.0, 0.4, 0.0, 0.4, 0.1, 0.2, lambda z: np.full(z.shape, 2 + 1j)
    )
    cfg = hm.DppConfig(radius=0.2, damping=1.0, residual_tol=1e-12)
    res = hm.dpp_solve(g, D2, cfg)
    assert res.converged
    assert res.iterations <= 2
    err = np.abs(res.field.values[res.field.interior_mask()] - (2 + 1j))
    assert err.max() <= 1e-12


def test_zero_initialization_propagates_inward_from_the_strip():
    # a zero initial guess must not be mistaken for a converged state;
    # the boundary strip feeds values inward sweep by sweep
    g = small_grid()
    g = hm.with_interior(g, 0j)
    cfg = hm.DppConfig(radius=0.2, residual_tol=1e-6, max_iterations=400)
    res = hm.dpp_solve(g, D2, cfg)
    assert res.converged
    assert res.iterations > 2
    mask = res.field.interior_mask()
    err = np.abs(res.field.values - np.exp(res.field.points()))[mask]
    assert err.max() <= 5e-2


def test_dpp_step_diagnostics_cover_all_interior_nodes():
    g = small_grid()
    g = hm.with_interior(g, 1.0 + 0j)
    cfg = hm.DppConfig(radius=0.2)
    stepped, diag = hm.dpp_step(g, D2, cfg)
    n_interior = int(g.interior_mask().sum())
    assert diag.updated_count + diag.skipped_count == n_interior
    assert diag.skipped_count == 0
    assert diag.residual_sup > 0
    # strip values never move
    mask = g.interior_mask()
    np.testing.assert_array_equal(stepped.values[~mask], g.values[~mask])


def test_dpp_solve_converges_on_smooth_data():
    g = small_grid(h=0.1, r=0.2)
    g = hm.with_interior(g, complex(np.mean(g.values)))
    cfg = hm.DppConfig(radius=0.2, residual_tol=1e-6, max_iterations=400)
    res = hm.dpp_solve(g, D2, cfg)
    assert res.converged
    assert res.residual_history[-1] <= 1e-6
    # the solved interior stays close to the holomorphic extension
    err = np.abs(res.field.values - np.exp(res.field.points()))
    assert err.max() <= 5e-2


def test_dpp_solve_reports_nonconvergence_under_budget():
    g = small_grid(h=0.1, r=0.2)
    g = hm.with_interior(g, 0j)
    cfg = hm.DppConfig(radius=0.2, residual_tol=1e-14, max_iterations=3)
    res = hm.dpp_solve(g, D2, cfg)
    assert not res.converged
    assert res.iterations == 3
    assert len(res.residual_history) == 3


def test_dpp_divergence_detector_carries_history():
    # an impossibly strict progress factor turns slow decay into a
    # divergence report after the first window
    g = small_grid(h=0.1, r=0.2)
    g = hm.with_interior(g, 0j)
    cfg = hm.DppConfig(
        radius=0.2,
        damping=0.05,
        residual_tol=1e-14,
        divergence_window=1,
        divergence_factor=0.1,
    )
    with pytest.raises(DivergenceError) as err:
        hm.dpp_solve(g, D2, cfg)
    assert len(err.value.history) >= 2


def test_dpp_config_validation():
    with pytest.raises(ConfigError):
        hm.DppConfig(radius=0.0)
    with pytest.raises(ConfigError):
        hm.DppConfig(radius=0.1, damping=0.0)
    with pytest.raises(ConfigError):
        hm.DppConfig(radius=0.1, damping=1.5)
    with pytest.raises(ConfigError):
        hm.DppConfig(radius=0.1, zero_policy="explode")


def test_radius_must_cover_at_least_two_cells():
    g = small_grid(h=0.1, r=0.2)
    with pytest.raises(ConfigError):
        hm.dpp_solve(g, D2, hm.DppConfig(radius=0.15))


def test_zero_policy_freeze_pins_dead_regions():
    # identically zero data: every node's value and circle vanish, so the
    # whole interior is frozen and the zero grid is reported as converged
    g = hm.grid_from_function(
        0.0, 0.4, 0.0, 0.4, 0.1, 0.2, lambda z: np.zeros(z.shape, dtype=complex)
    )
    cfg = hm.DppConfig(radius=0.2, zero_policy="freeze", residual_tol=1e-12)
    res = hm.dpp_solve(g, D2, cfg)
    assert res.converged
    assert np.all(res.field.values == 0)
    assert res.field.frozen is not None
    assert np.all(res.field.frozen[res.field.interior_mask()])


@pytest.mark.parametrize("p", (2.0, 3.0))
def test_sweep_without_an_active_node_leaves_the_grid_as_it_is(p):
    # Under the skip policy identically zero data makes every interior node
    # dead, so the pair means (closed form at p = 2, Newton fits at p = 3)
    # run on an empty batch.
    g = hm.grid_from_function(
        0.0, 0.4, 0.0, 0.4, 0.1, 0.2, lambda z: np.zeros(z.shape, dtype=complex)
    )
    d = hm.power_density(p)
    cfg = hm.DppConfig(radius=0.2, zero_policy="skip", residual_tol=1e-12)
    stepped, diag = hm.dpp_step(g, d, cfg)
    np.testing.assert_array_equal(stepped.values, g.values)
    assert diag == hm.StepDiagnostics(0.0, 0, int(g.interior_mask().sum()))
    assert stepped.frozen is None
    res = hm.dpp_solve(g, d, cfg)
    assert res.converged
    assert res.iterations == 1
    assert res.residual_history == (0.0,)


def test_callback_sees_every_sweep():
    g = small_grid(h=0.1, r=0.2)
    g = hm.with_interior(g, 0j)
    cfg = hm.DppConfig(radius=0.2, residual_tol=1e-4, max_iterations=200)
    seen = []
    res = hm.dpp_solve(g, D2, cfg, callback=lambda k, grid, diag: seen.append(k))
    assert seen == list(range(1, res.iterations + 1))


def test_dpp_config_needs_eight_circle_nodes():
    for count in (0, 3):
        with pytest.raises(ConfigError):
            hm.DppConfig(radius=0.15, node_count=count)
    assert hm.DppConfig(radius=0.15, node_count=8).node_count == 8


def test_error_bound_covers_the_true_error():
    g = hm.grid_from_function(0.0, 1.0, 0.0, 1.0, 0.05, 0.1, np.exp)
    g = hm.with_interior(g, complex(np.mean(g.values)))
    res = hm.dpp_solve(g, D2, hm.DppConfig(radius=0.1, residual_tol=1e-3))
    assert res.converged
    assert 0.9 < res.contraction < 1.0
    mask = res.field.interior_mask()
    err = np.abs(res.field.values - np.exp(res.field.points()))[mask].max()
    assert res.error_bound >= err


def test_error_bound_from_the_residual_history():
    def result(history):
        return hm.DppResult(None, tuple(history), len(history), False)

    # ratios 0.5, 0.5, 0.8: the median, not the mean, is the estimate
    assert result([1.0, 0.5, 0.25, 0.2]).contraction == 0.5
    assert result([1.0, 0.5, 0.25, 0.2]).error_bound == 0.2
    assert np.isnan(result([1.0]).contraction)
    assert result([1.0]).error_bound == np.inf
    assert result([1.0, 2.0, 4.0]).error_bound == np.inf


def reference_step(grid, d, cfg):
    """The sweep as it was before the stencil and the closed form: every
    sweep interpolates afresh and runs both Newton fits."""
    interior = grid.interior_mask()
    frozen = grid.frozen.copy() if grid.frozen is not None else np.zeros_like(interior)
    angles = 2.0 * np.pi * np.arange(cfg.node_count) / cfg.node_count
    offsets = cfg.radius * np.exp(1j * angles)
    near_zero = (np.abs(grid.values) < FIELD_FLOOR) & interior & ~frozen
    dead = np.zeros_like(near_zero)
    if np.any(near_zero):
        circle = hm.interpolate(grid, grid.points()[near_zero][:, None] + offsets[None, :])
        dead[near_zero] = np.max(np.abs(circle), axis=1) < FIELD_FLOOR
    if cfg.zero_policy == "freeze":
        frozen = frozen | dead
        active = interior & ~frozen
    else:
        active = interior & ~frozen & ~dead
    new_values = grid.values.copy()
    samples = hm.interpolate(grid, grid.points()[active][:, None] + offsets[None, :])
    weights = np.full(cfg.node_count, 2.0 * np.pi * cfg.radius / cfg.node_count)
    init_a = samples.mean(axis=1)
    res_a = fit_model_coefficient(
        d, samples, weights, np.ones_like(offsets), init_a, cfg.solver
    )
    init_b = (samples * offsets).sum(axis=1) * weights[0] / (2.0 * np.pi * cfg.radius**3)
    res_b = fit_model_coefficient(
        d, samples, weights, np.conj(offsets), init_b, cfg.solver
    )
    mean = res_a["minimizer"] + cfg.radius * res_b["minimizer"]
    bad = (res_a["status"] == 3) | (res_b["status"] == 3)
    old = grid.values[active]
    mean = np.where(bad, old, mean)
    new_values[active] = (1.0 - cfg.damping) * old + cfg.damping * mean
    frozen_out = frozen if cfg.zero_policy == "freeze" else grid.frozen
    return new_values, frozen_out, float(np.max(np.abs(mean - old)))


def patched_grid():
    # exp data with a zero disc: nodes near its centre are dead (value and
    # whole circle below the floor), nodes near its rim are merely zero
    def f(z):
        return np.where(np.abs(z - (0.3 + 0.3j)) > 0.16, np.exp(z), 0j)

    g = hm.grid_from_function(0.0, 0.6, 0.0, 0.6, 0.05, 0.1, f)
    return hm.with_interior(g, f)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("policy", ["skip", "freeze"])
def test_dpp_step_matches_the_reference_sweep_bit_for_bit(p, policy):
    d = hm.power_density(p)
    cfg = hm.DppConfig(radius=0.1, zero_policy=policy)
    grid = patched_grid()
    skipped = []
    for _ in range(3):
        stepped, diag = hm.dpp_step(grid, d, cfg)
        skipped.append(diag.skipped_count)
        values, frozen, residual = reference_step(grid, d, cfg)
        assert stepped.values.tobytes() == values.tobytes()
        assert diag.residual_sup == residual
        if policy == "freeze":
            np.testing.assert_array_equal(stepped.frozen, frozen)
            assert np.count_nonzero(frozen) > 0
        else:
            assert stepped.frozen is None
        grid = stepped
    # the patch is skipped at first; under "skip" its filled-in circles
    # make every node active again
    assert skipped[0] > 0
    assert (skipped[-1] > 0) == (policy == "freeze")


def test_dpp_solve_repeats_dpp_step():
    cfg = hm.DppConfig(radius=0.1, residual_tol=1e-2, zero_policy="freeze")
    res = hm.dpp_solve(patched_grid(), D2, cfg)
    grid, history = patched_grid(), []
    for _ in range(res.iterations):
        grid, diag = hm.dpp_step(grid, D2, cfg)
        history.append(diag.residual_sup)
    assert tuple(history) == res.residual_history
    assert grid.values.tobytes() == res.field.values.tobytes()


@pytest.mark.parametrize("damping", (1.0, 0.8))
def test_a_node_whose_fit_fails_keeps_its_value(damping):
    # Without a Newton iteration no pair-mean fit at p = 3 meets its
    # first-order tolerance, so every node keeps its old value exactly, at
    # any damping, and counts as skipped.
    g = small_grid(h=0.1, r=0.2)
    cfg = hm.DppConfig(radius=0.2, damping=damping, solver=hm.SolverConfig(max_iterations=0))
    stepped, diag = hm.dpp_step(g, hm.power_density(3), cfg)
    np.testing.assert_array_equal(stepped.values, g.values)
    assert diag == hm.StepDiagnostics(0.0, 0, int(g.interior_mask().sum()))


@pytest.mark.parametrize("h", (0.0, -0.1, np.nan, np.inf))
def test_grid_refuses_a_step_that_is_not_positive_and_finite(h):
    with pytest.raises(InvalidParameterError, match="lattice step must be positive"):
        hm.make_grid(0.0, 0.4, 0.0, 0.4, h, 0.2)
    with pytest.raises(InvalidParameterError, match="lattice step must be positive"):
        hm.GridField(0.0, 0.4, 0.0, 0.4, h, 3, np.zeros((11, 11), dtype=complex))


@pytest.mark.parametrize("radius", (0.0, np.nan, np.inf))
def test_grid_and_config_refuse_a_radius_that_is_not_positive_and_finite(radius):
    with pytest.raises(InvalidParameterError, match="radius must be positive and finite"):
        hm.grid_from_function(0.0, 0.4, 0.0, 0.4, 0.1, radius, np.exp)
    with pytest.raises(ConfigError, match="radius must be positive and finite"):
        hm.DppConfig(radius=radius)


@pytest.mark.parametrize("bounds", ((np.nan, 0.4, 0.0, 0.4), (0.0, 0.4, -np.inf, 0.4),
                                    (0.0, np.inf, 0.0, 0.4)))
def test_grid_refuses_bounds_that_are_not_finite(bounds):
    with pytest.raises(InvalidParameterError, match="lattice bounds must be finite"):
        hm.make_grid(*bounds, 0.1, 0.2)
    with pytest.raises(InvalidParameterError, match="must be finite and non-empty"):
        hm.GridField(*bounds, 0.1, 3, np.zeros((11, 11), dtype=complex))


def test_grid_field_checks_its_strip_and_values():
    g = small_grid(h=0.1, r=0.2)
    with pytest.raises(InvalidParameterError, match="strip must be at least one cell, got 0"):
        hm.GridField(0.0, 0.4, 0.0, 0.4, 0.1, 0, np.zeros((5, 5), dtype=complex))
    with pytest.raises(InvalidParameterError, match=r"does not match lattice \(11, 11\)"):
        hm.GridField(0.0, 0.4, 0.0, 0.4, 0.1, g.strip_cells, g.values[:, :-1])


def test_strip_must_hold_every_circle():
    # h = 0.1 and r = 0.2 give a strip of 3 cells; circles of radius 0.35
    # need 5.
    g = small_grid(h=0.1, r=0.2)
    with pytest.raises(ConfigError, match="strip of 3 cells cannot contain circles"):
        hm.dpp_step(g, D2, hm.DppConfig(radius=0.35))


def test_dpp_step_refuses_nonfinite_circle_samples():
    g = small_grid(h=0.1, r=0.2)
    values = g.values.copy()
    values[2, 5] = np.nan  # strip node next to the unknowns
    with pytest.raises(hm.NonFiniteSampleError, match="not finite"):
        hm.dpp_step(replace(g, values=values), D2, hm.DppConfig(radius=0.2))


def test_checkpoint_round_trip_keeps_frozen_nodes(tmp_path):
    g = small_grid()
    frozen = np.zeros(g.values.shape, dtype=bool)
    frozen[4, 5] = True
    g = replace(g, frozen=frozen)
    path = tmp_path / "frozen.csv"
    hm.write_checkpoint(g, path)
    assert path.read_text().count(",2\n") == 1
    back = hm.read_checkpoint(path)
    np.testing.assert_array_equal(back.frozen, frozen)
    np.testing.assert_array_equal(back.values, g.values)


@pytest.mark.parametrize("token, message", (
    ("h=nan", "positive finite step"),
    ("h=0", "positive finite step"),
    ("h=-0.1", "positive finite step"),
    ("x1=inf", "finite lattice bounds"),
    ("h=abc", "malformed lattice value 'h=abc'"),
    ("strip=x", "malformed lattice value 'strip=x'"),
))
def test_checkpoint_refuses_bad_lattice_metadata(tmp_path, token, message):
    path = tmp_path / "bad.csv"
    hm.write_checkpoint(small_grid(), path)
    key = token.partition("=")[0]
    path.write_text(re.sub(rf" {key}=\S+", f" {token}", path.read_text(), count=1))
    with pytest.raises(InvalidParameterError, match=message):
        hm.read_checkpoint(path)


def test_checkpoint_refuses_a_wrong_row_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(
        "# lattice x0=0 x1=0.1 y0=0 y1=0.1 h=0.1 strip=1\nx,y,re,im,flag\n"
        + "0,0,1,0,1\n" * 15
    )
    with pytest.raises(InvalidParameterError, match="has 15 rows, lattice needs 16"):
        hm.read_checkpoint(path)
