"""Grid fixed-point iteration: geometry, interpolation, checkpoints, solves."""

import io
import re
import warnings
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


@pytest.mark.parametrize("point", (complex(np.nan, 0.1), complex(0.1, np.inf)))
def test_interpolation_refuses_points_that_are_not_finite(point):
    with pytest.raises(InvalidParameterError, match="lies outside the lattice hull"):
        hm.interpolate(small_grid(), np.array([0.1 + 0.1j, point]))


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


def test_dpp_divergence_detector_carries_history(monkeypatch):
    # At p = 2 and damping 1 the sweep multiplies the mode exp(-i y / r) by
    # J0(1) + J1(1) = 1.2 away from the strip, so its sup residual rises
    # (0.184 to 0.218 here) before the strip damps it.
    g = small_grid(h=0.1, r=0.2, f=lambda z: np.exp(-1j * z.imag / 0.2))
    monkeypatch.setattr(hm.dpp, "DIVERGENCE_WINDOW", 1)
    monkeypatch.setattr(hm.dpp, "DIVERGENCE_FACTOR", 1.1)
    cfg = hm.DppConfig(radius=0.2, damping=1.0, residual_tol=1e-14)
    with pytest.raises(DivergenceError, match="grew from") as err:
        hm.dpp_solve(g, D2, cfg)
    assert len(err.value.history) == 2
    assert err.value.history[1] > 1.1 * err.value.history[0]


@pytest.mark.parametrize("window, factor, raises", (
    # the one rise, sweep 1 to sweep 2, is by a factor 1.184
    (1, 1.18, True),
    (1, 1.19, False),
    # every later sweep shrinks the residual, so no two sweeps apart grow
    (2, 1.1, False),
))
def test_the_divergence_detector_compares_sweeps_a_window_apart(window, factor, raises,
                                                                monkeypatch):
    g = small_grid(h=0.1, r=0.2, f=lambda z: np.exp(-1j * z.imag / 0.2))
    monkeypatch.setattr(hm.dpp, "DIVERGENCE_WINDOW", window)
    monkeypatch.setattr(hm.dpp, "DIVERGENCE_FACTOR", factor)
    cfg = hm.DppConfig(radius=0.2, damping=1.0, residual_tol=1e-14)
    if raises:
        with pytest.raises(DivergenceError, match=f"over {window} sweeps"):
            hm.dpp_solve(g, D2, cfg)
    else:
        assert hm.dpp_solve(g, D2, cfg).converged


def test_the_default_divergence_detector_lets_a_transient_rise_converge():
    # The rise of the test above is far below DIVERGENCE_FACTOR and inside
    # DIVERGENCE_WINDOW; the solve reaches its tolerance in 59 sweeps.
    g = small_grid(h=0.1, r=0.2, f=lambda z: np.exp(-1j * z.imag / 0.2))
    res = hm.dpp_solve(g, D2, hm.DppConfig(radius=0.2, damping=1.0, residual_tol=1e-14))
    assert res.converged and res.iterations == 59
    assert res.residual_history[1] > res.residual_history[0]


def test_dpp_config_validation():
    with pytest.raises(ConfigError):
        hm.DppConfig(radius=0.0)
    with pytest.raises(ConfigError):
        hm.DppConfig(radius=0.1, damping=0.0)
    with pytest.raises(ConfigError):
        hm.DppConfig(radius=0.1, damping=1.5)


def test_radius_must_cover_at_least_two_cells():
    g = small_grid(h=0.1, r=0.2)
    with pytest.raises(ConfigError):
        hm.dpp_solve(g, D2, hm.DppConfig(radius=0.15))


@pytest.mark.parametrize("p", (2.0, 3.0))
def test_sweep_without_an_active_node_leaves_the_grid_as_it_is(p):
    # Identically zero data makes every interior node dead, so the pair
    # means (closed form at p = 2, Newton fits at p = 3) run on an empty
    # batch.
    g = hm.grid_from_function(
        0.0, 0.4, 0.0, 0.4, 0.1, 0.2, lambda z: np.zeros(z.shape, dtype=complex)
    )
    d = hm.power_density(p)
    cfg = hm.DppConfig(radius=0.2, residual_tol=1e-12)
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


@pytest.mark.parametrize("settings, message", (
    (dict(max_iterations=-1), "max_iterations must be >= 0, got -1"),
    (dict(residual_tol=-1e-3), "residual_tol must be >= 0, got -0.001"),
    (dict(residual_tol=np.nan), "residual_tol must be >= 0, got nan"),
))
def test_dpp_config_refuses_iteration_settings_out_of_range(settings, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        hm.DppConfig(radius=0.2, **settings)


def test_dpp_config_accepts_the_edges_of_its_ranges(monkeypatch):
    monkeypatch.setattr(hm.dpp, "DIVERGENCE_WINDOW", 1)
    monkeypatch.setattr(hm.dpp, "DIVERGENCE_FACTOR", 1.0)
    cfg = hm.DppConfig(radius=0.2, max_iterations=0, residual_tol=0.0)
    res = hm.dpp_solve(small_grid(h=0.1, r=0.2), D2, cfg)
    assert res.iterations == 0 and res.residual_history == () and not res.converged


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
    held = grid.frozen if grid.frozen is not None else np.zeros_like(interior)
    n = hm.geometry.DEFAULT_CIRCLE_NODES
    offsets = cfg.radius * np.exp(1j * 2.0 * np.pi * np.arange(n) / n)
    near_zero = (np.abs(grid.values) < FIELD_FLOOR) & interior & ~held
    dead = np.zeros_like(near_zero)
    if np.any(near_zero):
        circle = hm.interpolate(grid, grid.points()[near_zero][:, None] + offsets[None, :])
        dead[near_zero] = np.max(np.abs(circle), axis=1) < FIELD_FLOOR
    active = interior & ~held & ~dead
    new_values = grid.values.copy()
    samples = hm.interpolate(grid, grid.points()[active][:, None] + offsets[None, :])
    init_a = samples.mean(axis=1)
    res_a = fit_model_coefficient(d, samples, np.ones_like(offsets), init_a)
    init_b = (samples * offsets).mean(axis=1) / cfg.radius**2
    res_b = fit_model_coefficient(d, samples, np.conj(offsets), init_b)
    mean = res_a["minimizer"] + cfg.radius * res_b["minimizer"]
    bad = (res_a["status"] == 3) | (res_b["status"] == 3)
    old = grid.values[active]
    mean = np.where(bad, old, mean)
    new_values[active] = (1.0 - cfg.damping) * old + cfg.damping * mean
    return new_values, float(np.max(np.abs(mean - old)))


def patched_grid():
    # exp data with a zero disc: nodes near its centre are dead (value and
    # whole circle below the floor), nodes near its rim are merely zero
    def f(z):
        return np.where(np.abs(z - (0.3 + 0.3j)) > 0.16, np.exp(z), 0j)

    g = hm.grid_from_function(0.0, 0.6, 0.0, 0.6, 0.05, 0.1, f)
    return hm.with_interior(g, f)


def held_grid():
    # patched_grid with ten nodes held fixed: the dead centre of the zero
    # disc and its eight neighbours, and one node of the exp data
    g = patched_grid()
    pts = g.points()
    held = (np.abs(pts - (0.3 + 0.3j)) < 0.08) | (np.abs(pts - (0.1 + 0.1j)) < 0.01)
    return replace(g, frozen=held)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("start", [patched_grid, held_grid], ids=["none-held", "held"])
def test_dpp_step_matches_the_reference_sweep_to_rounding(p, start):
    # The sweep sums the projections over lattice shifts, not node by node,
    # so values and residual may move by rounding: a sum of 256 corner terms
    # of size at most max|v| is within 256 eps max|v| of its reordering.
    d = hm.power_density(p)
    cfg = hm.DppConfig(radius=0.1)
    grid = start()
    skipped = []
    for _ in range(3):
        stepped, diag = hm.dpp_step(grid, d, cfg)
        skipped.append(diag.skipped_count)
        values, residual = reference_step(grid, d, cfg)
        bound = 256 * np.finfo(float).eps * np.max(np.abs(grid.values))
        assert np.max(np.abs(stepped.values - values)) <= bound
        assert abs(diag.residual_sup - residual) <= bound
        assert stepped.frozen is grid.frozen
        grid = stepped
    if start is patched_grid:
        # the dead centre is skipped at first; its filled-in circle makes
        # it active again
        assert skipped == [1, 0, 0]
    else:
        # held nodes are skipped in every sweep and keep their values
        assert skipped == [10, 10, 10]
        held = grid.frozen
        np.testing.assert_array_equal(grid.values[held], start().values[held])


def test_dpp_solve_repeats_dpp_step():
    cfg = hm.DppConfig(radius=0.1, residual_tol=1e-2)
    res = hm.dpp_solve(held_grid(), D2, cfg)
    grid, history = held_grid(), []
    for _ in range(res.iterations):
        grid, diag = hm.dpp_step(grid, D2, cfg)
        history.append(diag.residual_sup)
    assert tuple(history) == res.residual_history
    assert grid.values.tobytes() == res.field.values.tobytes()


def random_lattice(rng, h, radius, extra_strip):
    """Random complex values on [0, 0.3] x [0, 0.24], whose strip is the
    least that circles of ``radius`` need plus ``extra_strip`` layers."""
    g = hm.make_grid(0.0, 0.3, 0.0, 0.24, h, radius)
    shape = tuple(n + 2 * extra_strip for n in g.values.shape)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return hm.GridField(0.0, 0.3, 0.0, 0.24, h, g.strip_cells + extra_strip, values)


def interpolated_projections(grid, cfg):
    """Circle samples of every unknown through public ``interpolate`` and
    their centre and slope projections."""
    q = hm.circle_rule(0j, cfg.radius, hm.geometry.DEFAULT_CIRCLE_NODES)
    samples = hm.interpolate(grid, grid.points()[grid.interior_mask()][:, None] + q.nodes)
    centre = samples.mean(axis=1)
    slope = (samples * q.nodes).mean(axis=1) / cfg.radius**2
    return samples, centre, slope


SHIFT_CASES = [
    (h, nodes, extra)
    for h in (0.02, 0.03)  # r / h = 5 and 10 / 3
    for nodes in (8, 9, 64)
    for extra in (0, 2)
]


@pytest.mark.parametrize("h, nodes, extra", SHIFT_CASES)
def test_the_quadratic_sweep_is_the_projection_of_interpolated_samples(rng, monkeypatch, h,
                                                                      nodes, extra):
    monkeypatch.setattr(hm.geometry, "DEFAULT_CIRCLE_NODES", nodes)
    grid = random_lattice(rng, h, 0.1, extra)
    cfg = hm.DppConfig(radius=0.1, damping=1.0)
    stepped, diag = hm.dpp_step(grid, D2, cfg)
    _, centre, slope = interpolated_projections(grid, cfg)
    mask = grid.interior_mask()
    np.testing.assert_allclose(stepped.values[mask], centre + 0.1 * slope, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(stepped.values[~mask], grid.values[~mask])
    assert diag.skipped_count == 0


@pytest.mark.parametrize("h, nodes, extra", SHIFT_CASES)
def test_the_newton_sweep_fits_interpolated_samples(rng, monkeypatch, h, nodes, extra):
    monkeypatch.setattr(hm.geometry, "DEFAULT_CIRCLE_NODES", nodes)
    grid = random_lattice(rng, h, 0.1, extra)
    cfg = hm.DppConfig(radius=0.1)
    calls = []

    def recording_fit(d, samples, model, init):
        calls.append((samples, model, init))
        return fit_model_coefficient(d, samples, model, init)

    monkeypatch.setattr("holomeans.means.fit_model_coefficient", recording_fit)
    hm.dpp_step(grid, hm.power_density(3), cfg)
    # both fits get the public interpolant's samples and, as starts, their
    # centre and slope projections, bit for bit
    samples, centre, slope = interpolated_projections(grid, cfg)
    offsets = hm.circle_rule(0j, cfg.radius, nodes).nodes
    assert len(calls) == 2
    for (got, model, init), want in zip(calls, ((np.ones(nodes), centre),
                                                (np.conj(offsets), slope))):
        np.testing.assert_array_equal(got, samples)
        np.testing.assert_array_equal(model, want[0])
        np.testing.assert_array_equal(init, want[1])


def window_tap_sum(values, stencil, coefficients):
    """The tap sum as one 2-D window of the lattice per tap, each added to a
    running total: the reference the spectral sum must match to rounding."""
    i, j = stencil.box
    total = 0.0
    for (dy, dx), c in zip(stencil.taps.shifts.tolist(), coefficients.tolist()):
        total = total + c * values[i.start + dy : i.stop + dy, j.start + dx : j.stop + dx]
    return total


def spectral_sum(values, stencil):
    """``dpp._spectral_sum`` with the sweep's ``top``, the largest modulus of
    the unknowns, copied out of the stencil's work buffer, which the next
    sum overwrites."""
    from holomeans.dpp import _spectral_sum

    return _spectral_sum(values, stencil, np.abs(values[stencil.box]).max()).copy()


TAP_SUM_LATTICES = {
    # name: (bounds, h, radius the strip is built for, radius solved at)
    "dpp-quadratic": ((0.0, 1.0, 0.0, 1.0), 0.02, 0.1, 0.1),
    "non-square": ((0.0, 0.3, 0.0, 0.24), 0.02, 0.1, 0.1),
    "r/h not whole": ((0.0, 0.3, 0.0, 0.24), 0.03, 0.1, 0.1),
    "wide strip": ((0.0, 0.3, 0.0, 0.24), 0.02, 0.2, 0.1),
    # 29 x 29 nodes, the dpp_exp.ini lattice: padded to 30 x 30
    "padded": ((0.0, 1.0, 0.0, 1.0), 0.05, 0.15, 0.15),
}


@pytest.mark.parametrize("name", TAP_SUM_LATTICES)
def test_the_spectral_tap_sum_matches_the_window_sum_to_rounding(rng, name):
    from holomeans.dpp import _circle_stencil

    bounds, h, built_for, radius = TAP_SUM_LATTICES[name]
    grid = hm.make_grid(*bounds, h, built_for)
    shape = grid.values.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid = replace(grid, values=values)
    stencil = _circle_stencil(grid, hm.DppConfig(radius=radius), D2)
    taps = stencil.taps
    # one tap per distinct bilinear corner shift of the circle nodes, in
    # the order of the shifts, on a lattice padded to 2-3-5-smooth sizes
    cells = stencil.offsets / h
    dx = np.floor(cells.real).astype(int) + np.array([0, 1, 0, 1])[:, None]
    dy = np.floor(cells.imag).astype(int) + np.array([0, 0, 1, 1])[:, None]
    np.testing.assert_array_equal(
        taps.shifts, np.unique(np.column_stack([dy.ravel(), dx.ravel()]), axis=0)
    )
    smooth = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45,
              48, 50, 54, 60, 64, 72, 75, 80, 81, 90, 96, 100)
    assert taps.spectrum.shape == tuple(min(m for m in smooth if m >= n) for n in shape)
    if name == "padded":
        assert shape == (29, 29) and taps.spectrum.shape == (30, 30)
    got = spectral_sum(values, stencil)
    want = window_tap_sum(values, stencil, taps.pair)
    assert got.shape == values[stencil.box].shape
    # the bound of the reference-sweep test: 256 eps max|v|
    assert np.max(np.abs(got - want)) <= 256 * np.finfo(float).eps * np.max(np.abs(values))


@pytest.mark.parametrize("damping", (1.0, 0.8))
def test_a_node_whose_fit_fails_keeps_its_value(damping, monkeypatch):
    # Without a Newton iteration no pair-mean fit at p = 3 meets its
    # first-order tolerance, so every node keeps its old value exactly, at
    # any damping, and counts as skipped.
    g = small_grid(h=0.1, r=0.2)
    monkeypatch.setattr(hm.means, "MAX_NEWTON_ITERATIONS", 0)
    cfg = hm.DppConfig(radius=0.2, damping=damping)
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


@pytest.mark.parametrize("p", (2.0, 3.0))
def test_a_nan_read_only_through_a_zero_weight_corner_still_raises(p):
    # At h = 0.1 and r = 0.2 the outermost strip column is reached only by
    # the corners of the theta = 0 circle node, which lies on the lattice
    # column before it, so their weights are exactly 0; 0 * nan is nan.
    g = small_grid(h=0.1, r=0.2)
    values = g.values.copy()
    values[5, -1] = np.nan
    with pytest.raises(hm.NonFiniteSampleError, match="not finite"):
        hm.dpp_step(replace(g, values=values), hm.power_density(p), hm.DppConfig(radius=0.2))


def nonfinite_strip_step(p, node, bad):
    """``dpp_step`` on 13 x 13 lattice nodes (h = 0.1, r = 0.2) with one
    non-finite strip value, warnings raised as errors."""
    g = hm.grid_from_function(0.5, 1.1, 0.5, 1.1, 0.1, 0.2, np.exp)
    values = g.values.copy()
    values[node(g.strip_cells, g.shape[0])] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return g, hm.dpp_step(replace(g, values=values), hm.power_density(p), hm.DppConfig(radius=0.2))


@pytest.mark.parametrize("bad", (np.inf, np.nan))
@pytest.mark.parametrize("p", (2.0, 3.0))
def test_a_nonfinite_strip_node_a_circle_reads_raises_the_typed_error_only(p, bad):
    # (s + 2, nx - 1) is read through a zero-weight corner: 0 * inf is nan.
    with pytest.raises(hm.NonFiniteSampleError, match="not finite"):
        nonfinite_strip_step(p, lambda s, nx: (s + 2, nx - 1), bad)


@pytest.mark.parametrize("bad", (np.inf, np.nan))
@pytest.mark.parametrize("p", (2.0, 3.0))
def test_a_nonfinite_strip_node_no_unknown_s_taps_read_leaves_the_step_as_it_is(p, bad):
    # No circle reaches column 0: no unknown's taps read (s + 1, 0), so the
    # node is zeroed before the FFT.
    g, (stepped, diag) = nonfinite_strip_step(p, lambda s, nx: (s + 1, 0), bad)
    clean, clean_diag = hm.dpp_step(g, hm.power_density(p), hm.DppConfig(radius=0.2))
    mask = g.interior_mask()
    assert np.array_equal(stepped.values[mask], clean.values[mask])
    assert diag == clean_diag


@pytest.mark.parametrize("p", (2.0, 3.0))
def test_a_nan_on_a_strip_node_no_circle_reads_does_not_raise(p):
    g = small_grid(h=0.1, r=0.2)
    values = g.values.copy()
    values[0, 0] = np.nan  # strip corner, farther than r from every unknown
    stepped, diag = hm.dpp_step(
        replace(g, values=values), hm.power_density(p), hm.DppConfig(radius=0.2)
    )
    mask = g.interior_mask()
    assert np.all(np.isfinite(stepped.values[mask]))
    assert diag.updated_count == int(mask.sum())


@pytest.mark.parametrize("p", (2.0, 3.0))
def test_a_nan_that_only_held_nodes_read_does_not_raise(p):
    # The taps of a node reach at most r + sqrt(2) h = 0.128 from it, so
    # holding the nodes within 0.13 of the NaN node holds every node that
    # reads it; holding those within 0.09 leaves some that read it.
    g = hm.grid_from_function(0.0, 1.0, 0.0, 1.0, 0.02, 0.1, np.exp)
    values, pts = g.values.copy(), g.points()
    values[31, 31] = np.nan
    cfg = hm.DppConfig(radius=0.1)
    held = np.abs(pts - pts[31, 31]) < 0.13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepped, diag = hm.dpp_step(replace(g, values=values, frozen=held), hm.power_density(p), cfg)
    computed = g.interior_mask() & ~held
    assert np.all(np.isfinite(stepped.values[computed]))
    assert diag.updated_count == int(computed.sum())
    with pytest.raises(hm.NonFiniteSampleError, match="not finite"):
        short = np.abs(pts - pts[31, 31]) < 0.09
        hm.dpp_step(replace(g, values=values, frozen=short), hm.power_density(p), cfg)


def quadratic_step(grid):
    """``dpp_step`` at p = 2 and r = 0.1, warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return hm.dpp_step(grid, D2, hm.DppConfig(radius=0.1))


def exp_lattice(scale=1.0):
    """exp data times ``scale`` on the 63 x 63 nodes of the unit square at
    h = 0.02, r = 0.1."""
    return hm.grid_from_function(0.0, 1.0, 0.0, 1.0, 0.02, 0.1, lambda z: scale * np.exp(z))


@pytest.mark.parametrize("scale", (1e305, 2.0**1020))
def test_a_step_on_huge_data_is_the_scaled_step(scale):
    # An FFT of the data unscaled would overflow: 3,969 nodes of modulus
    # up to 3e307 or 3e305.
    g = exp_lattice()
    stepped, diag = quadratic_step(g)
    big, big_diag = quadratic_step(replace(g, values=g.values * scale))
    want = stepped.values * scale
    bound = 256 * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(big.values - want)) <= bound
    assert abs(big_diag.residual_sup - diag.residual_sup * scale) <= bound
    assert (big_diag.updated_count, big_diag.skipped_count) == (diag.updated_count, 0)


@pytest.mark.parametrize("k", (500, -500))
def test_a_power_of_two_scales_the_step_bit_for_bit(k):
    # g is exp data times 2^500, so that 2^-500 g stays above FIELD_FLOOR
    # (a lower field would be skipped, not stepped) and 2^500 g is finite.
    g = exp_lattice(2.0**500)
    stepped, diag = quadratic_step(g)
    scaled, scaled_diag = quadratic_step(replace(g, values=g.values * 2.0**k))
    assert scaled.values.tobytes() == (stepped.values * 2.0**k).tobytes()
    assert scaled_diag == replace(diag, residual_sup=diag.residual_sup * 2.0**k)
    assert scaled_diag.skipped_count == 0


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


def test_checkpoint_refuses_a_file_without_its_column_line(tmp_path):
    path = tmp_path / "headless.csv"
    path.write_text("# lattice x0=0 x1=0.1 y0=0 y1=0.1 h=0.1 strip=1\n" + "0,0,1,0,1\n" * 16)
    with pytest.raises(InvalidParameterError, match="has no x,y,re,im,flag line"):
        hm.read_checkpoint(path)


def _savetxt_rows(grid):
    """The rows of a checkpoint as ``np.savetxt`` writes them: the oracle."""
    flags = grid.interior_mask().astype(int)
    if grid.frozen is not None:
        flags[grid.frozen] = 2
    pts = grid.points()
    table = np.column_stack(
        [a.ravel() for a in (pts.real, pts.imag, grid.values.real, grid.values.imag, flags)]
    )
    buf = io.StringIO()
    np.savetxt(buf, table, fmt=["%.17g"] * 4 + ["%d"], delimiter=",")
    return buf.getvalue()


# (nx, ny) lattices with strip 1: 36 rows; 255, 256 and 323 rows, around
# one 256-row block; 511, 512 and 513 rows, around two.
@pytest.mark.parametrize("nx, ny", ((6, 6), (15, 17), (16, 16), (17, 19), (7, 73), (16, 32), (19, 27)))
def test_checkpoint_rows_are_the_bytes_of_savetxt(tmp_path, nx, ny):
    rng = np.random.default_rng(nx * ny)
    values = rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx))
    special = [-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1e300, 3.0, np.nan, np.inf]
    flat = values.ravel()
    flat.real[: len(special)] = special
    flat.imag[-len(special):] = special[::-1]
    frozen = np.zeros((ny, nx), dtype=bool)
    frozen[1 : ny - 1, 1 : nx - 1] = rng.uniform(size=(ny - 2, nx - 2)) < 0.2
    g = hm.GridField(x0=0.1, x1=0.1 + 0.05 * (nx - 3), y0=-0.3, y1=-0.3 + 0.05 * (ny - 3),
                     h=0.05, strip_cells=1, values=values, frozen=frozen)
    assert g.frozen.any()
    path = tmp_path / "state.csv"
    hm.write_checkpoint(g, path, extra_header=("note = blocks",))
    head, columns, rows = path.read_text().partition("x,y,re,im,flag\n")
    assert columns and head.startswith("# note = blocks\n# lattice x0=0.10000000000000001 ")
    assert rows == _savetxt_rows(g)


def reference_spectral_sum(values, stencil):
    """The quadratic tap sums as a fresh computation per call: the lattice
    copied onto a zeroed padded array, prescaled over all of it, and
    transformed into new arrays.  The oracle of the per-solve buffers."""
    taps, (i, j) = stencil.taps, stencil.box
    padded = np.zeros(taps.spectrum.shape, dtype=complex)
    data = padded[: values.shape[0], : values.shape[1]]
    np.copyto(data, values, where=taps.reached)
    parts = padded.view(float)
    top = max(parts.max(), -parts.min())
    hit = None
    if not np.isfinite(top):
        bad = ~np.isfinite(data)
        hit = np.zeros(data[i, j].shape, dtype=bool)
        for sy, sx in taps.shifts.tolist():
            hit |= bad[i.start + sy : i.stop + sy, j.start + sx : j.stop + sx]
        hit = hit.ravel()
        data[bad] = 0.0
        top = max(parts.max(), -parts.min())
    e = int(np.frexp(top)[1])
    np.ldexp(parts, -e, out=parts)
    product = np.fft.fft(np.fft.fft(padded, axis=1), axis=0) * taps.spectrum
    sums = np.fft.ifft(np.fft.ifft(product, axis=0)[i], axis=1)[:, j].ravel()
    scaled = sums.view(float)
    with np.errstate(over="ignore"):
        np.ldexp(scaled, e, out=scaled)
    if hit is not None:
        sums[hit] = np.nan
    return sums


def reference_quadratic_step(grid, cfg):
    """One p = 2 sweep on :func:`reference_spectral_sum`: (values, residual)."""
    from holomeans.dpp import _circle_stencil

    stencil = _circle_stencil(grid, cfg, D2)
    box = stencil.box
    inner = grid.values[box].flatten()
    held = np.zeros(inner.size, dtype=bool) if grid.frozen is None else grid.frozen[box].flatten()
    near_zero = (np.abs(inner) < FIELD_FLOOR) & ~held
    if np.any(near_zero):
        centres = grid.points()[box].ravel()[near_zero]
        circle = hm.interpolate(grid, centres[:, None] + stencil.offsets)
        held[near_zero] = np.max(np.abs(circle), axis=1) < FIELD_FLOOR
    mean = reference_spectral_sum(grid.values, stencil)[~held]
    old = inner[~held]
    inner[~held] = (1.0 - cfg.damping) * old + cfg.damping * mean
    values = grid.values.copy()
    values[box] = inner.reshape(values[box].shape)
    return values, float(np.max(np.abs(mean - old))) if mean.size else 0.0


def strip_sets_the_prescale():
    # exp data (|component| up to e^1.15) around unknowns that start at 1
    return hm.with_interior(hm.grid_from_function(0.0, 1.0, 0.0, 1.0, 0.05, 0.15, np.exp), 1.0)


def unknowns_set_the_prescale():
    # unknowns that start at 9+9i and fall towards the exp data
    return hm.with_interior(strip_sets_the_prescale(), 9.0 + 9.0j)


def near_1e300():
    # strip data of 1e306 exp: scaled by the unknowns' top alone, their
    # transform would overflow
    g = hm.grid_from_function(0.0, 1.0, 0.0, 1.0, 0.05, 0.15, lambda z: 1e306 * np.exp(z))
    return hm.with_interior(g, 1.0)


def unreached_unknowns():
    # 2 x 2 unknowns, no tap of which reads another at r = 5h: no sum reads
    # the 1e308 start, which must not set the prescale either
    g = hm.grid_from_function(0.0, 0.02, 0.0, 0.02, 0.02, 0.1, np.exp)
    return hm.with_interior(g, 1e308)


PRESCALE_CASES = {
    "strip": (strip_sets_the_prescale, 0.15),
    "unknowns": (unknowns_set_the_prescale, 0.15),
    "near 1e300": (near_1e300, 0.15),
    # held_grid's frozen nodes, with the zero disc's other nodes near zero
    "frozen": (held_grid, 0.1),
    "near-zero held": (patched_grid, 0.1),
    "unreached unknowns": (unreached_unknowns, 0.1),
}


@pytest.mark.parametrize("name", PRESCALE_CASES)
def test_the_quadratic_sweep_is_the_fresh_spectral_sum_bit_for_bit(name):
    from holomeans.dpp import _circle_stencil, _top

    start, radius = PRESCALE_CASES[name]
    cfg = hm.DppConfig(radius=radius, residual_tol=0.0, max_iterations=6)
    grid = start()
    taps = _circle_stencil(grid, cfg, D2).taps
    unknown_top = _top(grid.values[grid.interior_mask()])
    if name in ("strip", "near 1e300"):
        assert taps.strip_top > unknown_top
    elif name == "unreached unknowns":
        assert not taps.reached[grid.interior_mask()].any()
    elif name == "unknowns":
        assert taps.strip_top < unknown_top
    seen = []
    res = hm.dpp_solve(grid, D2, cfg, callback=lambda k, g, diag: seen.append(diag))
    history = []
    for diag in seen:
        values, residual = reference_quadratic_step(grid, cfg)
        stepped, step_diag = hm.dpp_step(grid, D2, cfg)
        assert stepped.values.tobytes() == values.tobytes()
        assert step_diag == diag and diag.residual_sup == residual
        history.append(residual)
        grid = stepped
    assert res.iterations == 6 and tuple(history) == res.residual_history
    assert res.field.values.tobytes() == grid.values.tobytes()
    if name == "frozen":
        assert {diag.skipped_count for diag in seen} == {10}
    if name == "near-zero held":
        assert seen[0].skipped_count == 1


@pytest.mark.parametrize("where", ("strip", "unknown"))
def test_a_nan_node_turns_only_the_sums_that_read_it_nan(where):
    from holomeans.dpp import _circle_stencil

    cfg = hm.DppConfig(radius=0.15)
    clean = unknowns_set_the_prescale()
    s = clean.strip_cells
    node = (s + 5, s - 1) if where == "strip" else (s + 5, s + 3)
    values = clean.values.copy()
    values[node] = np.nan
    g = replace(clean, values=values)
    stencil = _circle_stencil(g, cfg, D2)
    got = spectral_sum(values, stencil)
    assert got.tobytes() == reference_spectral_sum(values, stencil).tobytes()
    bad = np.zeros(values.shape)
    bad[node] = 1.0
    reads = window_tap_sum(bad, stencil, np.ones(len(stencil.taps.shifts))) != 0
    assert 0 < reads.sum() < reads.size
    np.testing.assert_array_equal(np.isnan(got), reads)
    # the NaN was zeroed on a copy: the next sum on clean data is exact
    clean_sum = spectral_sum(clean.values, stencil)
    assert clean_sum.tobytes() == reference_spectral_sum(clean.values, stencil).tobytes()
    with pytest.raises(hm.NonFiniteSampleError, match="not finite"):
        hm.dpp_step(g, D2, cfg)


def exp_times(k):
    """exp data times 2**k on the unit square (h 0.05, r 0.15), unknowns at 2**k."""
    g = hm.grid_from_function(0.0, 1.0, 0.0, 1.0, 0.05, 0.15, lambda z: 2.0**k * np.exp(z))
    return hm.with_interior(g, 2.0**k)


def count_top_calls(monkeypatch):
    """Count the calls of ``dpp._top``: one per stencil build, one more per
    sweep that scales its data."""
    from holomeans import dpp

    calls, top = [], dpp._top
    monkeypatch.setattr(dpp, "_top", lambda a: calls.append(a.shape) or top(a))
    return calls


# The unknowns' largest modulus is 2**k and the strip's largest part is
# about 3.3 * 2**k, so the sweep scales its data below k = -400 and above
# k = 398.  FIELD_FLOOR (1e-8) would hold every node near 2**-400; the test
# sets it to 0.
@pytest.mark.parametrize("k, scaled", ((-401, True), (-400, False), (-26, False),
                                       (398, False), (399, True), (1018, True)))
def test_a_step_on_data_times_a_power_of_two_is_the_unit_step_times_it(k, scaled, monkeypatch):
    from holomeans import dpp

    monkeypatch.setattr(dpp, "FIELD_FLOOR", 0.0)
    cfg = hm.DppConfig(radius=0.15)
    unit, unit_diag = hm.dpp_step(exp_times(0), D2, cfg)
    calls = count_top_calls(monkeypatch)
    got, diag = hm.dpp_step(exp_times(k), D2, cfg)
    assert len(calls) == 1 + scaled
    assert got.values.tobytes() == (unit.values * 2.0**k).tobytes()
    assert diag == replace(unit_diag, residual_sup=unit_diag.residual_sup * 2.0**k)


def test_the_scaled_transforms_give_the_bits_of_the_unscaled_ones(monkeypatch):
    # The dpp-quadratic lattice (63 x 63, h 0.02, r 0.1) from a seeded start:
    # five sweeps with the data scaled, as an empty unscaled range forces,
    # write the bytes of five sweeps without.
    from holomeans import dpp

    grid = hm.grid_from_function(0.0, 1.0, 0.0, 1.0, 0.02, 0.1, np.exp)
    rng = np.random.default_rng(3)
    noise = rng.uniform(-1.0, 1.0, (2,) + grid.values.shape)
    start = complex(np.mean(grid.values)) + 0.05 * (noise[0] + 1j * noise[1])
    grid = hm.with_interior(grid, lambda _points: start)
    cfg = hm.DppConfig(radius=0.1, residual_tol=0.0, max_iterations=5)
    calls = count_top_calls(monkeypatch)
    default = hm.dpp_solve(grid, D2, cfg)
    assert len(calls) == 1
    monkeypatch.setattr(dpp, "_UNSCALED_RANGE", (np.inf, np.inf))
    forced = hm.dpp_solve(grid, D2, cfg)
    assert len(calls) == 1 + 1 + 5
    assert forced.iterations == default.iterations == 5
    assert forced.field.values.tobytes() == default.field.values.tobytes()
    assert forced.residual_history == default.residual_history


def test_a_spectral_sum_is_a_view_that_the_next_sum_overwrites():
    from holomeans.dpp import _circle_stencil, _spectral_sum

    grid = strip_sets_the_prescale()
    stencil = _circle_stencil(grid, hm.DppConfig(radius=0.15), D2)
    first = _spectral_sum(grid.values, stencil, 1.0)
    kept = first.copy()
    values = grid.values.copy()
    values[stencil.box] = 2.0
    second = _spectral_sum(values, stencil, 2.0)
    assert np.shares_memory(first, second) and first.tobytes() == second.tobytes()
    assert kept.tobytes() != second.tobytes()
    assert kept.tobytes() == spectral_sum(grid.values, stencil).tobytes()


def test_a_callback_that_keeps_every_grid_finds_them_unchanged():
    cfg = hm.DppConfig(radius=0.15, residual_tol=1e-3)
    kept = []
    res = hm.dpp_solve(unknowns_set_the_prescale(), D2, cfg,
                       callback=lambda k, g, diag: kept.append((g, g.values.tobytes())))
    assert len(kept) == res.iterations > 2
    assert kept[-1][0] is res.field
    for g, snapshot in kept:
        assert g.values.tobytes() == snapshot
    arrays = [g.values for g, _ in kept]
    assert not any(np.shares_memory(a, b) for a, b in zip(arrays, arrays[1:]))


@pytest.mark.parametrize("p", (2.0, 3.0))
def test_two_steps_on_one_grid_give_equal_bytes(p):
    g = held_grid()
    cfg = hm.DppConfig(radius=0.1)
    (a, diag_a), (b, diag_b) = (hm.dpp_step(g, hm.power_density(p), cfg) for _ in range(2))
    assert a.values.tobytes() == b.values.tobytes() and diag_a == diag_b
    assert a.values is not b.values and a.frozen is g.frozen
