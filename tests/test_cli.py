"""Command line driver: scenarios in, CSV out, exit codes, determinism."""

import pathlib

import numpy as np
import pytest

import holomeans as hm
from holomeans.cli import load_scenario, main, parse_density_spec
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


def test_every_solver_field_is_a_scenario_key(tmp_path):
    cfg = write(
        tmp_path,
        "mean.ini",
        "field.spec = exp\ndensity.spec = power:p=3\n"
        "mean.point = 0.3+0.4i\nmean.r = 0.25\nsolver.step_tol = 1e-9\n",
    )
    out = tmp_path / "mean.csv"
    assert run(["mean", "--config", cfg, "--out", out]) == 0
    assert "# solver.step_tol = 1e-9" in out.read_text()


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


# pharm-radial:3 is NaN at the origin.  At -0.1 the origin is a node of the
# r = 0.1 circle, which leaves that point 7 of the 8 radii; at 0 the sweep
# runs but the jet cannot be sampled.  0.5+0.2i is fine in both cases.
_FAILING_POINTS = {
    "InsufficientDataError": "-0.1; 0.5+0.2i\nsweep.min_successes = 8",
    "NonFiniteSampleError": "0; 0.5+0.2i",
}


@pytest.mark.parametrize("error", sorted(_FAILING_POINTS))
@pytest.mark.parametrize("command, verdict", [
    ("verify-holo", "inconclusive"),
    ("verify-system", "satisfied"),
    ("verify-amvp", "holds"),
])
def test_verify_keeps_a_failing_point_as_an_error_row(tmp_path, command, verdict, error):
    cfg = write(
        tmp_path,
        "failing.ini",
        "field.spec = pharm-radial:3\ndensity.spec = power:p=3\n"
        f"points.list = {_FAILING_POINTS[error]}\n",
    )
    out = tmp_path / "failing.csv"
    with np.errstate(divide="ignore", invalid="ignore"):
        assert run([command, "--config", cfg, "--out", out]) == 1
    header, rows = read_rows(out)
    assert [r["verdict"] for r in rows] == ["error", verdict]
    assert rows[0][header[6]] == error


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


def test_dpp_command_reports_divergence(tmp_path):
    # conj data is no fixed point of the pair-mean map: undamped on
    # [0, 1.6]^2 its sup residual stays at r = 0.2 for three sweeps and then
    # grows: the sixth is more than 1.1 times the third
    cfg = write(
        tmp_path,
        "div.ini",
        "field.spec = conj\ndensity.spec = power:p=2\n"
        "dpp.x0 = 0\ndpp.x1 = 1.6\ndpp.y0 = 0\ndpp.y1 = 1.6\n"
        "dpp.h = 0.1\ndpp.radius = 0.2\ndpp.damping = 1\n"
        "dpp.residual_tol = 1e-14\ndpp.divergence_window = 3\n"
        "dpp.divergence_factor = 1.1\n",
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


def test_shipped_scenarios_are_valid():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    names = sorted(p.name for p in root.glob("*.ini"))
    assert names, "scenario directory is empty"
    for name in names:
        load_scenario(str(root / name))


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
    ("mean", _MEAN_BASE + "mean.r = 0.25\nmean.kind = bogus\n", None,
     "mean.kind must be one of"),
    ("mean", _MEAN_BASE + "mean.r = 0\n", None, "mean.r must be positive, got 0.0"),
    ("verify-holo", "field.spec = exp\ndensity.spec = power:p=0.5\npoints.list = 0.5\n", None,
     "power density needs p > 1, got 0.5"),
    ("verify-holo", "density.spec = power:p=3\npoints.list = 0.5\n", None,
     "missing required key 'field.spec'"),
    ("verify-holo", _VERIFY_BASE + "points.list = ;\n", None, "cannot parse ';' (no points given)"),
    ("dpp", _SMALL_DPP + "dpp.init = zero\n", None,
     "dpp.init must be 'field' or 'const:<complex>', got 'zero'"),
    # settings that are module constants, not scenario keys
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\ntol.limit_tol = 1e-3\n", None,
     "unknown keys for this command: 'tol.limit_tol' (line 4)"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\nsolver.armijo_slope = 0.1\n", None,
     "unknown keys for this command: 'solver.armijo_slope' (line 5)"),
    ("dpp", _SMALL_DPP + "dpp.zero_floor = 1e-6\n", None,
     "unknown keys for this command: 'dpp.zero_floor' (line 9)"),
    # iteration settings out of range
    ("dpp", _SMALL_DPP + "dpp.divergence_window = -3\n", None,
     "divergence_window must be at least 1 sweep, got -3"),
    ("dpp", _SMALL_DPP + "dpp.divergence_factor = 0.5\n", None,
     "divergence_factor must be finite and at least 1, got 0.5"),
    ("dpp", _SMALL_DPP + "dpp.max_iterations = -1\n", None,
     "max_iterations must be >= 0, got -1"),
    ("dpp", _SMALL_DPP + "dpp.residual_tol = nan\n", None, "residual_tol must be >= 0, got nan"),
    # sweep ladders, solver budgets and counts the library refuses
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.rho = 2\n", None,
     "rho must lie in (0, 1), got 2.0"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.count = 1\n", None,
     "count must be >= 2, got 1"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.min_successes = 0\n", None,
     "min_successes must be >= 1, got 0"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.r0 = nan\n", None,
     "r0 must be positive and finite, got nan"),
    ("verify-holo", _VERIFY_BASE + "points.list = 0.5\nsweep.nodes = 4\n", None,
     "need at least 8 circle nodes, got 4"),
    ("sweep", _VERIFY_BASE + "sweep.point = 0.3+0.4i\nsweep.kind = bogus\n", None,
     "sweep.kind must be one of"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\nsolver.max_backtracks = 0\n", None,
     "max_backtracks must be >= 1, got 0"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\nsolver.step_tol = nan\n", None,
     "step_tol must be finite and >= 0, got nan"),
    ("mean", _MEAN_BASE + "mean.r = 0.25\nsolver.step_tol = -1\n", None,
     "step_tol must be finite and >= 0, got -1.0"),
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
