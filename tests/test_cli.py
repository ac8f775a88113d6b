"""Command line driver: scenarios in, CSV out, exit codes, determinism."""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import holomeans as hm
from holomeans.cli import _HANDLERS, Scenario, load_scenario, main, parse_density_spec
from holomeans.errors import ConfigError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_parse_density_spec():
    d = parse_density_spec("power:p=3")
    assert d.lambda_lo == pytest.approx(2.0)
    for bad in ("gauss:p=2", "power:q=2", "power:p=abc", "power:p=2,q=1"):
        with pytest.raises(ConfigError):
            parse_density_spec(bad)


def test_load_scenario_diagnostics(tmp_path):
    path = write(tmp_path, "s.ini", "a.b = 1\n# comment\na.c = 2  # trailing\n")
    sc = load_scenario(path)
    assert sc.take("a.b", cast=int) == 1
    assert sc.take("a.c", cast=int) == 2
    sc.finish()

    for text, fragment in [
        ("key value\n", "expected 'key = value'"),
        ("k =\n", "empty value"),
        ("a = 1\na = 2\n", "duplicate key"),
    ]:
        p = write(tmp_path, "bad.ini", text)
        with pytest.raises(ConfigError, match=fragment.replace("'", ".")):
            load_scenario(p)


def test_mean_command_writes_csv(tmp_path):
    cfg = write(
        tmp_path,
        "mean.ini",
        "field.spec = exp\ndensity.spec = power:p=3\n"
        "mean.point = 0.3+0.4i\nmean.r = 0.25\n",
    )
    out = tmp_path / "mean.csv"
    assert run(["mean", "--config", cfg, "--out", out]) == 0
    header, rows = read_rows(out)
    assert header == ["r", "re_c", "im_c", "foc_residual", "status"]
    assert len(rows) == 1
    assert rows[0]["status"] == "converged"
    text = out.read_text()
    assert "# command = mean" in text
    assert "# field.spec = exp" in text


def test_sweep_command_reports_limit_in_header(tmp_path):
    cfg = write(
        tmp_path,
        "sweep.ini",
        "field.spec = square\ndensity.spec = power:p=2\n"
        "sweep.kind = variational\nsweep.point = 0.7+0.2i\n",
    )
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    header, rows = read_rows(out)
    assert len(rows) == 8
    assert all(r["status"] == "converged" for r in rows)
    text = out.read_text()
    assert "# verdict = vanishes" in text  # z^2 is holomorphic


def test_sweep_command_infinity_reports_support_counts(tmp_path):
    cfg = write(
        tmp_path,
        "inf.ini",
        "field.spec = exp\nsweep.kind = infinity\nsweep.point = 0.3+0.1i\n",
    )
    out = tmp_path / "inf.csv"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    header, rows = read_rows(out)
    assert header[-1] == "support_count"
    assert len(rows) == 8
    assert all(int(r["support_count"]) >= 1 for r in rows)


def test_sweep_command_marks_a_failed_radius(tmp_path):
    # pharm-radial:3 is NaN at the origin, a node of the r = 0.1 circle at -0.1
    cfg = write(
        tmp_path,
        "failed.ini",
        "field.spec = pharm-radial:3\ndensity.spec = power:p=3\n"
        "sweep.point = -0.1\n",
    )
    out = tmp_path / "failed.csv"
    with np.errstate(divide="ignore", invalid="ignore"):
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
    _, rows = read_rows(out)
    assert len(rows) == 8
    assert [r["status"] for r in rows[:2]] == ["failed", "converged"]
    assert [rows[0][k] for k in ("re_c", "im_c", "foc_residual")] == ["nan"] * 3


def test_verify_holo_exit_codes(tmp_path):
    good = write(
        tmp_path,
        "good.ini",
        "field.spec = exp\ndensity.spec = power:p=2\npoints.list = 0.4+0.1i\n",
    )
    bad = write(
        tmp_path,
        "bad.ini",
        "field.spec = conj\ndensity.spec = power:p=2\npoints.list = 0.4+0.1i\n",
    )
    assert run(["verify-holo", "--config", good]) == 0
    assert run(["verify-holo", "--config", bad]) == 1


def test_verify_holo_grid_points(tmp_path):
    cfg = write(
        tmp_path,
        "grid.ini",
        "field.spec = exp\ndensity.spec = power:p=2\n"
        "points.grid = 0.2,0.6,2,0.1,0.3,2\n",
    )
    out = tmp_path / "grid.csv"
    assert run(["verify-holo", "--config", cfg, "--out", out]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 4
    assert all(r["verdict"] == "holomorphic" for r in rows)


def test_verify_system_untestable_point_fails_run(tmp_path):
    cfg = write(
        tmp_path,
        "sys.ini",
        "field.spec = identity\ndensity.spec = power:p=2\npoints.list = 0\n",
    )
    out = tmp_path / "sys.csv"
    assert run(["verify-system", "--config", cfg, "--out", out]) == 1
    _, rows = read_rows(out)
    assert rows[0]["verdict"] == "untestable"


def test_verify_makes_one_engine_call_per_sweep(tmp_path, monkeypatch):
    engine = hm.asymptotics._ladder_means
    calls = []

    def counted(kind, f, points, radii, *args):
        calls.append((len(points), len(radii)))
        return engine(kind, f, points, radii, *args)

    monkeypatch.setattr(hm.asymptotics, "_ladder_means", counted)
    cfg = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "verify_holo_exp.ini"
    assert run(["verify-holo", "--config", cfg, "--out", tmp_path / "v.csv"]) == 0
    assert calls == [(3, 8)]


@pytest.mark.parametrize("verdict, extra", [
    (hm.holomorphy_verdict, ()),
    (hm.system_verdict, ()),
    (hm.amvp_verdict, ()),
    (hm.contact_solution_verdict, (4,)),
], ids=["holomorphy", "system", "amvp", "contact"])
def test_a_verdict_sweep_makes_one_fit_call(verdict, extra, monkeypatch):
    # One fit call per model: the pair mean fits its center rows on the model 1,
    # then its slope rows on conj(offsets).
    fit = hm.means.fit_model_coefficient
    calls = []

    def counted(d, samples, model, init):
        calls.append((len(samples), "center" if np.all(model == 1.0) else "slope"))
        return fit(d, samples, model, init)

    monkeypatch.setattr(hm.means, "fit_model_coefficient", counted)
    rng = np.random.default_rng(3)
    points = rng.uniform(0.2, 0.8, 10) + 1j * rng.uniform(0.2, 0.8, 10)
    verdict(hm.make_field("pharm-radial:3"), points, hm.power_density(3), *extra)
    pair = verdict in (hm.amvp_verdict, hm.contact_solution_verdict)
    models = ["center", "slope"] if pair else ["slope"]
    assert calls == [(8 * points.size, model) for model in models]


# pharm-radial:3 is NaN at the origin.  At -0.1 the origin is a node of the
# r = 0.1 circle, which leaves that point 7 of the 8 radii, too few when a
# sweep needs all 8; at 0 every circle is fine but the field at the point is not.
# 0.5+0.2i is fine in both cases.  error -> (points, MIN_SUCCESSES)
_FAILING_POINTS = {
    "InsufficientDataError": ("-0.1; 0.5+0.2i", 8),
    "NonFiniteSampleError": ("0; 0.5+0.2i", hm.asymptotics.MIN_SUCCESSES),
}


@pytest.mark.parametrize("error", sorted(_FAILING_POINTS))
@pytest.mark.parametrize("command, verdict", [
    ("verify-holo", "inconclusive"),
    ("verify-system", "satisfied"),
    ("verify-amvp", "holds"),
])
def test_verify_keeps_a_failing_point_as_an_error_row(tmp_path, monkeypatch, command, verdict,
                                                      error):
    points, min_successes = _FAILING_POINTS[error]
    monkeypatch.setattr(hm.asymptotics, "MIN_SUCCESSES", min_successes)
    cfg = write(
        tmp_path,
        "failing.ini",
        "field.spec = pharm-radial:3\ndensity.spec = power:p=3\n"
        f"points.list = {points}\n",
    )
    out = tmp_path / "failing.csv"
    with np.errstate(divide="ignore", invalid="ignore"):
        assert run([command, "--config", cfg, "--out", out]) == 1
    header, rows = read_rows(out)
    assert [r["verdict"] for r in rows] == ["error", verdict]
    assert rows[0][header[6]] == error


def test_verify_writes_a_failing_call_as_an_error_row_per_point(tmp_path):
    # power:p=1e6 has no usable Young conjugate, so the whole verdict call fails
    cfg = write(
        tmp_path,
        "degenerate.ini",
        "field.spec = exp\ndensity.spec = power:p=1e6\n"
        "points.list = 0.4+0.1i; 0.5+0.2i\n",
    )
    out = tmp_path / "degenerate.csv"
    assert run(["verify-holo", "--config", cfg, "--out", out]) == 1
    header, rows = read_rows(out)
    assert [(r["verdict"], r[header[6]]) for r in rows] == [
        ("error", "DegenerateDensityError")] * 2


def test_verify_amvp_passes_on_solution(tmp_path):
    cfg = write(
        tmp_path,
        "amvp.ini",
        "field.spec = exp\ndensity.spec = power:p=2\n"
        "points.list = 0.4+0.2i\nsweep.r0 = 0.02\n",
    )
    assert run(["verify-amvp", "--config", cfg]) == 0


def test_contact_command(tmp_path):
    cfg = write(
        tmp_path,
        "contact.ini",
        "field.spec = exp\ndensity.spec = power:p=2\n"
        "points.list = 0.4+0.2i\ncontact.directions = 4\nsweep.r0 = 0.02\n",
    )
    out = tmp_path / "contact.csv"
    assert run(["contact", "--config", cfg, "--out", out]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 4
    assert all(r["verdict"] == "holds" for r in rows)
    assert "# camvp_pass = true" in out.read_text()


def test_dpp_command_writes_checkpoint(tmp_path):
    cfg = write(
        tmp_path,
        "dpp.ini",
        "field.spec = exp\ndensity.spec = power:p=2\n"
        "dpp.x0 = 0\ndpp.x1 = 0.4\ndpp.y0 = 0\ndpp.y1 = 0.4\n"
        "dpp.h = 0.1\ndpp.radius = 0.2\ndpp.residual_tol = 1e-4\n",
    )
    out = tmp_path / "state.csv"
    assert run(["dpp", "--config", cfg, "--out", out]) == 0
    grid = hm.read_checkpoint(out)
    assert grid.h == pytest.approx(0.1)
    text = out.read_text()
    assert "# converged = true" in text


_SMALL_DPP = (
    "field.spec = exp\ndensity.spec = power:p=2\n"
    "dpp.x0 = 0\ndpp.x1 = 0.4\ndpp.y0 = 0\ndpp.y1 = 0.4\n"
    "dpp.h = 0.1\ndpp.radius = 0.2\n"
)


def test_dpp_command_writes_header_to_stdout_without_out(tmp_path, capsys):
    cfg = write(tmp_path, "dpp.ini", _SMALL_DPP + "dpp.residual_tol = 1e-4\n")
    assert run(["dpp", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# command = dpp"
    assert "# converged = true" in lines
    assert all(line.startswith("# ") for line in lines)


def test_dpp_command_reports_divergence(tmp_path, monkeypatch):
    # conj data is no fixed point of the pair-mean map: undamped on
    # [0, 1.6]^2 its sup residual stays at r = 0.2 for three sweeps and then
    # grows: the sixth is more than 1.1 times the third
    monkeypatch.setattr(hm.dpp, "DIVERGENCE_WINDOW", 3)
    monkeypatch.setattr(hm.dpp, "DIVERGENCE_FACTOR", 1.1)
    cfg = write(
        tmp_path,
        "div.ini",
        "field.spec = conj\ndensity.spec = power:p=2\n"
        "dpp.x0 = 0\ndpp.x1 = 1.6\ndpp.y0 = 0\ndpp.y1 = 1.6\n"
        "dpp.h = 0.1\ndpp.radius = 0.2\ndpp.damping = 1\n"
        "dpp.residual_tol = 1e-14\n",
    )
    out = tmp_path / "div.csv"
    assert run(["dpp", "--config", cfg, "--out", out]) == 1
    text = out.read_text()
    assert "# converged = false" in text
    assert "# iterations = 6" in text
    (line,) = [l for l in text.splitlines() if l.startswith("# diverged = ")]
    assert "residual grew" in line
    assert hm.read_checkpoint(out).h == pytest.approx(0.1)


def test_validate_density_command(tmp_path):
    cfg = write(tmp_path, "vd.ini", "density.spec = power:p=2.5\n")
    assert run(["validate-density", "--config", cfg]) == 0


def test_config_error_exit_code_and_diagnostics(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "bad.ini",
        "field.spec = exp\ndensity.spec = power:p=2\n"
        "points.list = 0.5\nbogus.key = 1\n",
    )
    assert run(["verify-holo", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "bogus.key" in err and "line 4" in err

    assert run(["mean", "--config", str(tmp_path / "missing.ini")]) == 2


def test_runs_are_deterministic(tmp_path):
    cfg = write(
        tmp_path,
        "det.ini",
        "field.spec = cube\ndensity.spec = power:p=1.5\n"
        "sweep.kind = variational\nsweep.point = 0.5-0.3i\n",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sweep", "--config", cfg, "--out", a]) == 0
    assert run(["sweep", "--config", cfg, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_overrides_scenario(tmp_path):
    cfg = write(
        tmp_path,
        "seeded.ini",
        "field.spec = exp\nmean.kind = infinity\n"
        "mean.point = 0.3+0.1i\nmean.r = 0.25\n",
    )
    out = tmp_path / "inf.csv"
    assert run(["mean", "--config", cfg, "--seed", "11", "--out", out]) == 0
    assert "# seed = 11" in out.read_text()


def test_seed_flag_wins_over_the_scenario_sweep_seed(tmp_path):
    cfg = write(
        tmp_path,
        "s.ini",
        "field.spec = exp\ndensity.spec = power:p=3\n"
        "points.list = 0.4+0.1i\nsweep.seed = 1\n",
    )
    flagged, plain = tmp_path / "flagged.csv", tmp_path / "plain.csv"
    assert run(["verify-holo", "--config", cfg, "--seed", "3", "--out", flagged]) == 0
    assert run(["verify-holo", "--config", cfg, "--out", plain]) == 0
    assert "# seed = 3\n" in flagged.read_text()
    assert "# seed = 1\n" in plain.read_text()


def test_shipped_scenarios_are_valid():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    names = sorted(p.name for p in root.glob("*.ini"))
    assert names, "scenario directory is empty"
    for name in names:
        load_scenario(str(root / name))


def _readme_key_table():
    """Command -> set of keys, from the key table of the README."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].strip("`") in _HANDLERS:
            table[cells[0].strip("`")] = set(re.findall(r"`([^`]+)`", cells[1]))
    return table


def test_readme_key_table_lists_the_keys_each_command_takes(tmp_path, monkeypatch):
    # Every handler takes each key it accepts before ``finish``, so the keys
    # passed to ``Scenario.take`` while a shipped scenario runs are the
    # command's accepted keys.
    taken = set()
    take = Scenario.take

    def spy(self, key, *args, **kwargs):
        taken.add(key)
        return take(self, key, *args, **kwargs)

    monkeypatch.setattr(Scenario, "take", spy)
    table = _readme_key_table()
    assert set(table) == set(_HANDLERS)
    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    ran = set()
    for ini in sorted(root.glob("*.ini")):
        (command,) = [c for c in _HANDLERS if ini.stem.replace("_", "-").startswith(c)]
        taken.clear()
        assert run([command, "--config", ini, "--out", tmp_path / "out.csv"]) in (0, 1)
        assert taken == table[command], ini.name
        ran.add(command)
    assert ran == set(_HANDLERS)


_VERIFY_BASE = "field.spec = exp\ndensity.spec = power:p=3\n"
_MEAN_BASE = "field.spec = exp\ndensity.spec = power:p=3\nmean.point = 0.3+0.4i\n"


# (command, scenario text, --out path under tmp_path or None, message)
@pytest.mark.parametrize("command, text, out, message", (
    ("verify-holo", "field.spec = exp\ndensity.spec = power:p\npoints.list = 0.5\n", None,
     "density parameter 'p' is not key=value"),
    ("verify-holo", _VERIFY_BASE + "points list = 0.5\n", None,
     "line 3: bad key 'points list'"),
    ("verify-holo", _VERIFY_BASE + "points.grid = 0,1,2\n", None,
     "grid spec needs x0,x1,nx,y0,y1,ny"),
    ("verify-holo", _VERIFY_BASE + "points.grid = 0,1,0,0,1,2\n", None,
     "grid counts must be positive"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\npoints.grid = 0,1,2,0,1,2\n", None,
     "give either points.list or points.grid, not both"),
    ("verify-holo", _VERIFY_BASE, None, "missing points: set points.list or points.grid"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\n", "missing-dir/mean.csv", "cannot write output"),
    ("dpp", _SMALL_DPP, "missing-dir/dpp.csv", "cannot write output"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\nmean.kind = bogus\n", None,
     "mean.kind must be one of"),
    ("mean", _MEAN_BASE + "mean.r = 0\n", None, "mean.r must be positive, got 0.0"),
    ("verify-holo", "field.spec = exp\ndensity.spec = power:p=0.5\npoints.list = 0.5\n", None,
     "power density needs p > 1, got 0.5"),
    ("verify-holo", "density.spec = power:p=3\npoints.list = 0.5\n", None,
     "missing required key 'field.spec'"),
    ("verify-holo", _VERIFY_BASE + "points.list = ;\n", None, "cannot parse ';' (no points given)"),
    ("dpp", _SMALL_DPP + "dpp.init = field\n", None,
     "line 9: dpp.init: must be 'const:<complex>', got 'field'"),
    ("dpp", _SMALL_DPP + "dpp.init = const:abc\n", None,
     "line 9: dpp.init: cannot parse 'const:abc'"),
    # settings that are module constants, not scenario keys
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\ntol.limit_tol = 1e-3\n", None,
     "unknown keys for this command: 'tol.limit_tol' (line 4)"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\nsolver.armijo_slope = 0.1\n", None,
     "unknown keys for this command: 'solver.armijo_slope' (line 5)"),
    ("dpp", _SMALL_DPP + "dpp.zero_floor = 1e-6\n", None,
     "unknown keys for this command: 'dpp.zero_floor' (line 9)"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\nsolver.max_iterations = 10\n", None,
     "unknown keys for this command: 'solver.max_iterations' (line 5)"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsolver.step_tol = 1e-9\n", None,
     "unknown keys for this command: 'solver.step_tol' (line 4)"),
    ("dpp", _SMALL_DPP + "solver.max_backtracks = 5\n", None,
     "unknown keys for this command: 'solver.max_backtracks' (line 9)"),
    ("dpp", _SMALL_DPP + "dpp.divergence_window = 3\n", None,
     "unknown keys for this command: 'dpp.divergence_window' (line 9)"),
    ("dpp", _SMALL_DPP + "dpp.divergence_factor = 1.1\n", None,
     "unknown keys for this command: 'dpp.divergence_factor' (line 9)"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.min_successes = 0\n", None,
     "unknown keys for this command: 'sweep.min_successes' (line 4)"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.nodes = 4\n", None,
     "unknown keys for this command: 'sweep.nodes' (line 4)"),
    ("dpp", _SMALL_DPP + "dpp.nodes = 32\n", None,
     "unknown keys for this command: 'dpp.nodes' (line 9)"),
    ("dpp", _SMALL_DPP + "dpp.zero_policy = freeze\n", None,
     "unknown keys for this command: 'dpp.zero_policy' (line 9)"),
    # iteration settings out of range
    ("dpp", _SMALL_DPP + "dpp.max_iterations = -1\n", None,
     "max_iterations must be >= 0, got -1"),
    ("dpp", _SMALL_DPP + "dpp.residual_tol = nan\n", None, "residual_tol must be >= 0, got nan"),
    # sweep ladders and counts the library refuses
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.rho = 2\n", None,
     "rho must lie in (0, 1), got 2.0"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.count = 1\n", None,
     "count must be >= 4, got 1"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.count = 3\n", None,
     "count must be >= 4, got 3"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.r0 = nan\n", None,
     "r0 must be positive and finite, got nan"),
    ("sweep", _VERIFY_BASE + "sweep.point = 0.3+0.4i\nsweep.kind = bogus\n", None,
     "sweep.kind must be one of"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\nmean.nodes = 4\n", None,
     "need at least 8 circle nodes, got 4"),
    ("contact", _VERIFY_BASE + "points.list = 0.5\ncontact.directions = 0\n", None,
     "need at least one direction, got 0"),
    ("validate-density", "density.spec = power:p=3\ndensity.samples = 5\n", None,
     "sample_count must be at least 16"),
))
def test_config_errors_exit_2_with_their_own_message(tmp_path, capsys, command, text, out,
                                                      message):
    cfg = write(tmp_path, "bad.ini", text)
    args = [command, "--config", cfg] + (["--out", tmp_path / out] if out else [])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert message in err


@pytest.mark.parametrize("command, text, message", (
    ("mean", _MEAN_BASE + "mean.r = nan\n", "mean.r must be positive, got nan"),
    ("mean", _MEAN_BASE + "mean.r = inf\n", "mean.r must be finite, got inf"),
    ("dpp", _SMALL_DPP.replace("dpp.radius = 0.2", "dpp.radius = nan"),
     "radius must be positive and finite, got nan"),
    ("dpp", _SMALL_DPP.replace("dpp.h = 0.1", "dpp.h = nan"),
     "lattice step must be positive and finite, got nan"),
    ("dpp", _SMALL_DPP.replace("dpp.x1 = 0.4", "dpp.x1 = inf"),
     "lattice bounds must be finite"),
))
def test_nonfinite_radii_steps_and_bounds_exit_2(tmp_path, capsys, command, text, message):
    test_config_errors_exit_2_with_their_own_message(tmp_path, capsys, command, text, None,
                                                     message)


def test_a_library_error_exits_1_with_its_class_name(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "zero.ini",
        "field.spec = const:0\ndensity.spec = power:p=3\n"
        "mean.kind = conjugate\nmean.point = 0.3\nmean.r = 0.1\n",
    )
    assert run(["mean", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("ZeroFieldError: conjugate transform needs")


def test_commands_are_the_handler_table_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", "none.ini"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    choices = err[err.index("choose from"):]
    commands = ("mean", "sweep", "verify-holo", "verify-system", "verify-amvp", "contact",
                "dpp", "validate-density")
    at = [choices.index(c) for c in commands]
    assert at == sorted(at)


def test_repeated_calls_in_one_process_give_the_first_call_s_bytes(tmp_path, capsys):
    # main builds its parser once per process; a later call must not see
    # anything an earlier one left behind.
    scenarios = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    runs = [("mean", "mean_exp.ini"), ("dpp", "dpp_exp.ini"),
            ("verify-holo", "verify_holo_conj.ini"), ("validate-density", "validate_density.ini")]
    first = {}
    for attempt in range(3):
        for command, name in runs:
            out = tmp_path / f"{name}.{attempt}.csv"
            code = run([command, "--config", scenarios / name, "--out", out, "--seed", 4])
            first.setdefault(name, (code, out.read_bytes()))
            assert (code, out.read_bytes()) == first[name], (attempt, name)
        stdout_code = run(["validate-density", "--config", scenarios / "validate_density.ini"])
        printed = capsys.readouterr().out
        first.setdefault("stdout", (stdout_code, printed))
        assert (stdout_code, printed) == first["stdout"]
    assert first["verify_holo_conj.ini"][0] == 1 and first["stdout"][0] == 0


@pytest.mark.parametrize("argv, complaint", (
    ([], "the following arguments are required: command, --config"),
    (["bogus", "--config", "x.ini"], "argument command: invalid choice: 'bogus'"),
    (["mean"], "the following arguments are required: --config"),
    (["mean", "--config", "x.ini", "--seed", "two"], "argument --seed: invalid int value: 'two'"),
))
def test_a_bad_command_line_exits_2_with_the_usage_every_time(capsys, argv, complaint):
    for _ in range(3):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: holomeans [-h] --config CONFIG")
        assert f"holomeans: error: {complaint}" in err


def test_importing_the_cli_builds_no_parser():
    # The parser is built by the first main call, not at import.
    code = ("import holomeans.cli as cli; "
            "assert cli._parser.cache_info().currsize == 0; print('ok')")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hm.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr


@pytest.mark.parametrize("command, lines", (
    ("verify-system", "points.list = nan; 0.5+0.5i"),
    ("verify-amvp", "points.list = 0.5+0.5i; 1e400"),
    ("verify-holo", "points.list = 0.5+0.5i; inf"),
    ("contact", "points.list = 0.5+0.5i; nan+1i"),
    ("verify-holo", "points.grid = 0,nan,3,0,1,3"),
    ("mean", "mean.point = nan\nmean.r = 0.1"),
    ("sweep", "sweep.point = -1e999i"),
    ("sweep", "sweep.point = inf"),
))
def test_a_nonfinite_point_is_a_configuration_error(tmp_path, capsys, command, lines):
    cfg = write(tmp_path, "nan.ini",
                f"field.spec = pharm-radial:3\ndensity.spec = power:p=3\n{lines}\n")
    assert run([command, "--config", cfg, "--out", tmp_path / "out.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: line 3: ")
    assert ("must be finite" if "points.grid" in lines else "not finite") in err
    assert not (tmp_path / "out.csv").exists()
