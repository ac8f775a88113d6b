"""Workloads of the holomeans benchmark.

Each workload has a set-up, which builds its inputs from the seed, a list of
timed user-facing calls, and a check, which compares the calls' answers with
a known exact solution or a stored reference.  A pass makes every call once
and then checks.  The program only ever sees the generated inputs.  Why each
workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from layers import residual_rises

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass
class Call:
    """One user-facing call of a pass.

    ``run`` is the timed part.  ``prepare`` (if any) runs before it and
    ``output`` after it, untimed; ``output`` gives the parts of the call's
    output whose exact bytes repeats of the call must reproduce.
    """

    label: str
    figure: str | None  # timing figure the call adds to, e.g. ``holo_s``
    run: object  # () -> result
    output: object  # result -> tuple of bytes or str
    prepare: object = None  # () -> None


@dataclass
class Workload:
    setup: object  # (hm, seed) -> inputs
    calls: object  # (hm, inputs, workdir, calibration) -> list of Call
    # (hm, inputs, workdir, {label: result}) -> (attempted, failed, outputs, figures)
    check: object


@dataclass
class PassResult:
    run_s: float
    attempted: int
    failed: int
    outputs: dict  # output name -> sha256 of its exact bytes
    figures: dict  # figure name -> (value, unit)


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


_KERNEL_CIRCLE = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
_KERNEL_DESIGN = np.stack([np.ones(64), _KERNEL_CIRCLE.real, _KERNEL_CIRCLE.imag], axis=1)
_KERNEL_RADII = (0.2, 0.1, 0.05, 0.025, 0.0125)


def calibration_kernel():
    """Fixed work of about 0.23 ms, shaped like a circle-mean radius sweep.

    Per radius: sample 64 points on a circle, evaluate a field, fit by
    least squares, and touch some values in Python.  It shares no code
    with holomeans, so only the machine's speed moves its time.
    """
    total = 0.0
    for r in _KERNEL_RADII:
        points = (0.4 + 0.3j) + r * _KERNEL_CIRCLE
        values = np.exp(points) * np.conj(points)
        coef = np.linalg.lstsq(_KERNEL_DESIGN, values.real, rcond=None)[0]
        total += float(coef[0]) + float(np.abs(values).max())
        total += sum(abs(complex(v)) for v in values[:16])
    return total


class Calibration:
    """Times of the calibration kernel, run between and inside timed calls.

    ``sample`` runs the kernel twice and times the second run: the first
    brings back into cache what the work before it pushed out, which would
    otherwise make the kernel's time depend on that work.  Both runs are
    taken out of any call they run inside (``paused`` adds them up), so
    calls are timed without them.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def sample(self, *_hook_args):
        start = time.perf_counter()
        calibration_kernel()
        t = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        self.samples.append(end - t)
        self.paused += end - start


def timed(call, calibration):
    """Run one call, then one calibration sample; return the call's result,
    wall time (without samples taken inside it) and output digest."""
    if call.prepare is not None:
        call.prepare()
    paused = calibration.paused
    t = time.perf_counter()
    result = call.run()
    seconds = time.perf_counter() - t - (calibration.paused - paused)
    calibration.sample()
    return result, seconds, digest(*call.output(result))


def timing_figures(calls, seconds):
    """Per timing figure, the sum of its calls' times."""
    figures = {}
    for call in calls:
        if call.figure is not None:
            value = figures.get(call.figure, (0.0, "s"))[0]
            figures[call.figure] = (value + seconds[call.label], "s")
    return figures


def run_pass(workload, hm, inputs, workdir):
    """Make every call of the workload once, then check the answers."""
    calibration = Calibration()
    calls = workload.calls(hm, inputs, workdir, calibration)
    results, seconds, outputs = {}, {}, {}
    for call in calls:
        results[call.label], seconds[call.label], outputs[call.label] = timed(call, calibration)
    attempted, failed, checked, figures = workload.check(hm, inputs, workdir, results)
    outputs.update(checked)
    figures.update(timing_figures(calls, seconds))
    return PassResult(sum(seconds.values()), attempted, failed, outputs, figures)


# -- dpp-quadratic, dpp-power4 -------------------------------------------------

NOISE_AMPLITUDE = 0.05

# Criterion 10(b) and 10(c) of the acceptance tests, on the unit square with
# exp boundary data.
DPP_CASES = {
    "dpp-quadratic": dict(p=2.0, h=0.02, radius=0.1, damping=0.8,
                          residual_tol=1e-3, max_iterations=500,
                          sup_error_tol=5e-2, checkpoint=True),
    "dpp-power4": dict(p=4.0, h=0.05, radius=0.15, damping=0.5,
                       residual_tol=1e-4, max_iterations=1500,
                       sup_error_tol=None, checkpoint=False),
}


@dataclass
class DppInputs:
    case: dict
    grid: object
    density: object
    cfg: object


def setup_dpp(hm, seed, name):
    """Lattice with exp data; interior = data mean + seeded complex noise."""
    case = DPP_CASES[name]
    grid = hm.grid_from_function(0.0, 1.0, 0.0, 1.0, case["h"], case["radius"], np.exp)
    rng = np.random.default_rng(seed)
    shape = grid.values.shape
    start = complex(np.mean(grid.values)) + NOISE_AMPLITUDE * (
        rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    )
    grid = hm.with_interior(grid, lambda _points: start)
    cfg = hm.DppConfig(
        radius=case["radius"],
        damping=case["damping"],
        residual_tol=case["residual_tol"],
        max_iterations=case["max_iterations"],
    )
    return DppInputs(case, grid, hm.power_density(case["p"]), cfg)


def _same_lattice(a, b):
    frozen_equal = (a.frozen is None and b.frozen is None) or (
        a.frozen is not None and b.frozen is not None
        and np.array_equal(a.frozen, b.frozen)
    )
    return (
        (a.x0, a.x1, a.y0, a.y1, a.h, a.strip_cells)
        == (b.x0, b.x1, b.y0, b.y1, b.h, b.strip_cells)
        and np.array_equal(a.values, b.values)
        and frozen_equal
    )


def _failed_solve(hm, result):
    return isinstance(result, hm.HolomeansError) or not result.converged


def dpp_calls(hm, inp, workdir, calibration):
    """One call: the solve to convergence, with a calibration sample after
    every sweep (through the solve's own callback hook)."""

    def solve():
        try:
            return hm.dpp_solve(inp.grid, inp.density, inp.cfg, callback=calibration.sample)
        except hm.HolomeansError as exc:
            return exc

    def output(result):
        if _failed_solve(hm, result):
            return (repr(result),)
        return (result.field.values.tobytes(), repr(result.residual_history))

    return [Call("dpp_solve", None, solve, output)]


def check_dpp(hm, inp, workdir, results):
    """Check the field and round-trip it through a checkpoint."""
    result = results["dpp_solve"]
    if _failed_solve(hm, result):
        return 1, 1, {}, {}
    final = result.field
    _, diag = hm.dpp_step(final, inp.density, inp.cfg)
    attempted, failed = 1, 0
    outputs = {}
    figures = {
        "sweeps": (result.iterations, "count"),
        "residual_rises": (residual_rises(result.residual_history), "count"),
        "fixed_point_residual": (diag.residual_sup, "abs"),
    }
    tol = inp.case["sup_error_tol"]
    if tol is not None:  # exp is the exact solution only at p = 2
        mask = final.interior_mask()
        sup_error = float(np.max(np.abs(final.values - np.exp(final.points()))[mask]))
        failed += int(sup_error > tol)
        figures["dpp_sup_error"] = (sup_error, "abs")
    if inp.case["checkpoint"]:
        path = os.path.join(workdir, "lattice.csv")
        hm.write_checkpoint(final, path)
        back = hm.read_checkpoint(path)
        attempted += 1
        failed += int(not _same_lattice(final, back))
        with open(path, "rb") as fh:
            outputs["checkpoint"] = digest(fh.read())
    return attempted, failed, outputs, figures


# -- verdict-grid --------------------------------------------------------------

GRID_POINTS = 100
# Points per verdict call.  A verdict row depends on its own point only, so
# the calls give the rows of one whole-list call; NOTES.md says why chunks.
GRID_CHUNK = 10
GRID_P = 3.0
CONTACT_DIRECTIONS = 16

# (figure, API, field, the verdict every row must carry).  pharm-radial:3 is
# the gradient of the radial 3-harmonic potential, an exact solution of the
# system at p = 3; exp is holomorphic but violates it; conj is not holomorphic.
VERDICT_CASES = (
    ("holo_s", "holomorphy_verdict", "exp", "holomorphic"),
    ("holo_s", "holomorphy_verdict", "conj", "not_holomorphic"),
    ("system_s", "system_verdict", "pharm-radial:3", "satisfied"),
    ("system_s", "system_verdict", "exp", "violated"),
    ("amvp_s", "amvp_verdict", "pharm-radial:3", "holds"),
    ("amvp_s", "amvp_verdict", "exp", "fails"),
    ("contact_s", "contact_solution_verdict", "pharm-radial:3", "holds"),
)


@dataclass
class GridInputs:
    points: np.ndarray
    fields: dict
    density: object


def setup_grid(hm, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.2, 0.8, GRID_POINTS) + 1j * rng.uniform(0.2, 0.8, GRID_POINTS)
    fields = {spec: hm.make_field(spec) for _, _, spec, _ in VERDICT_CASES}
    return GridInputs(points, fields, hm.power_density(GRID_P))


def _row_verdicts(result):
    if hasattr(result, "rows"):  # ContactReport
        return [row.status for row in result.rows] + (
            ["untestable"] * len(result.untestable_points)
        )
    return [getattr(row, "verdict", None) or row.status for row in result]


def _chunks(points):
    return [points[i:i + GRID_CHUNK] for i in range(0, len(points), GRID_CHUNK)]


def grid_calls(hm, inp, workdir, calibration):
    """Each verdict API once per chunk of GRID_CHUNK points."""
    calls = []
    for figure, api, spec, _ in VERDICT_CASES:
        extra = (CONTACT_DIRECTIONS,) if api == "contact_solution_verdict" else ()
        for index, chunk in enumerate(_chunks(inp.points)):
            run = functools.partial(getattr(hm, api), inp.fields[spec], chunk, inp.density, *extra)
            calls.append(Call(f"{api}:{spec}:{index}", figure, run, lambda result: (repr(result),)))
    return calls


def check_grid(hm, inp, workdir, results):
    attempted = failed = 0
    figures = {}
    for _, api, spec, expected in VERDICT_CASES:
        verdicts = [
            verdict
            for index in range(len(_chunks(inp.points)))
            for verdict in _row_verdicts(results[f"{api}:{spec}:{index}"])
        ]
        wrong = sum(v != expected for v in verdicts)
        attempted += len(verdicts)
        failed += wrong
        figures[f"failed.{api}.{spec}"] = (wrong, "count")
        figures[f"attempted.{api}.{spec}"] = (len(verdicts), "count")
    return attempted, failed, {}, figures


# -- scenarios -----------------------------------------------------------------

# (scenario file, CLI command, exit code its comment documents)
SCENARIOS = (
    ("contact_exp.ini", "contact", 0),
    ("dpp_exp.ini", "dpp", 0),
    ("mean_exp.ini", "mean", 0),
    ("sweep_square.ini", "sweep", 0),
    ("validate_density.ini", "validate-density", 0),
    ("verify_amvp_pharm.ini", "verify-amvp", 0),
    ("verify_holo_conj.ini", "verify-holo", 1),
    ("verify_holo_exp.ini", "verify-holo", 0),
    ("verify_system_pharm.ini", "verify-system", 0),
)
# A numeric CSV cell matches its reference when |got - ref| <= ABS + REL |ref|.
ABS_TOL = 1e-9
REL_TOL = 1e-6


@dataclass
class ScenarioInputs:
    cli: object
    paths: dict
    references: dict
    seed: int


def setup_scenarios(hm, seed):
    import holomeans.cli

    found = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "scenarios", "*.ini")))
    listed = sorted(name for name, _, _ in SCENARIOS)
    if found != listed:
        raise RuntimeError(f"scenario files {found} differ from the benchmark table {listed}")
    references = {}
    for name in listed:
        with open(os.path.join(REFERENCE_DIR, name[:-4] + ".csv")) as fh:
            references[name] = fh.read()
    paths = {name: os.path.join(ROOT, "scenarios", name) for name in listed}
    return ScenarioInputs(holomeans.cli, paths, references, seed)


def scenario_argv(inp, name, command, out):
    return [command, "--config", inp.paths[name], "--out", out, "--seed", str(inp.seed)]


def _cell_matches(got, ref):
    if got == ref:
        return True
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return False
    if np.isnan(a) or np.isnan(b):
        return np.isnan(a) and np.isnan(b)
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def csv_matches(got, ref):
    """Compare a CSV with its reference: text exactly, numbers within tolerance.

    Header lines are ``# key = value``; the ``seed`` line is skipped, since
    the reference was written with seed 0 and the seed changes nothing else.
    """
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return False
    for g, r in zip(got_lines, ref_lines):
        if g.startswith("# seed = ") and r.startswith("# seed = "):
            continue
        if g.startswith("# ") and r.startswith("# "):
            gk, _, gv = g.partition(" = ")
            rk, _, rv = r.partition(" = ")
            if gk != rk or not _cell_matches(gv, rv):
                return False
            continue
        g_cells, r_cells = g.split(","), r.split(",")
        if len(g_cells) != len(r_cells) or not all(map(_cell_matches, g_cells, r_cells)):
            return False
    return True


def _remove(path):
    if os.path.exists(path):
        os.remove(path)


def _read(path):
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def scenario_calls(hm, inp, workdir, calibration):
    """Every scenario through holomeans.cli.main in-process.

    The result of a call is its exit code and the bytes of its CSV, read
    after the timing; the CSV is removed before each call, so a call that
    writes none is seen.  During a call, the CLI's ``dpp_solve`` gets the
    solve's own per-sweep callback, which takes a calibration sample, as in
    the dpp-* workloads.
    """

    def run(argv, out):
        solve = inp.cli.dpp_solve

        def solve_with_samples(grid, d, cfg, callback=None):
            def hook(*args):
                calibration.sample()
                if callback is not None:
                    callback(*args)

            return solve(grid, d, cfg, callback=hook)

        inp.cli.dpp_solve = solve_with_samples
        try:
            return inp.cli.main(argv), out
        finally:
            inp.cli.dpp_solve = solve

    calls = []
    for name, command, _ in SCENARIOS:
        out = os.path.join(workdir, name[:-4] + ".csv")
        argv = scenario_argv(inp, name, command, out)
        calls.append(Call(name, None, functools.partial(run, argv, out),
                          lambda result: (str(result[0]), _read(result[1])),
                          functools.partial(_remove, out)))
    return calls


def check_scenarios(hm, inp, workdir, results):
    failed = 0
    for name, _, expected_code in SCENARIOS:
        code, out = results[name]
        text = _read(out).decode()
        failed += int(code != expected_code or not csv_matches(text, inp.references[name]))
    return len(SCENARIOS), failed, {}, {}


WORKLOADS = {
    "dpp-quadratic": Workload(functools.partial(setup_dpp, name="dpp-quadratic"),
                              dpp_calls, check_dpp),
    "dpp-power4": Workload(functools.partial(setup_dpp, name="dpp-power4"),
                           dpp_calls, check_dpp),
    "verdict-grid": Workload(setup_grid, grid_calls, check_grid),
    "scenarios": Workload(setup_scenarios, scenario_calls, check_scenarios),
}
