"""Byte-exact CLI outputs: every shipped scenario plus the verify-* row layouts.

The stored CSVs under ``tests/golden/`` pin the output of each command for
seed 0.  Besides the shipped scenarios, each ``verify-*`` command has one
case whose sweeps are starved (``sweep.r0 = 1e-20``: every circle collapses
onto its centre, so no radius gives a value and the point becomes an
``error`` row), and each ``verify-*`` command and
``contact`` have one case with a field zero (``square`` at 0, an
``untestable`` row next to normal ones).  ``dpp_power3`` pins a DPP solve
off the quadratic density, where every sweep runs the Newton fits.

Regenerate after an intended output change with::

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes changed and reports, for each,
how many cells changed, the largest absolute change of a numeric cell, and
how many text and integer cells moved, with each case's exit code.

The bytes are exact only under the numpy build and SIMD dispatch they were
written with: numpy 2.4.6 on x86-64 with AVX-512.  numpy's float64 ``exp``,
``log`` and ``power`` (at exponents other than the special ones) round
differently in the last bit under other dispatch: with AVX2 dispatch
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) 4 goldens
fail, ``dpp_power3``, ``sweep_square``, ``verify_holo_exp`` and
``verify_system_pharm``, and with baseline dispatch 13 do, while every
other test passes.  On such a machine, compare by the drift report: run the
script mode above in a scratch checkout and read how far each file moved
(``git checkout tests/golden`` restores the stored bytes).  A golden is
not regenerated for a machine.
"""

import math
import os
import sys

import pytest

from holomeans.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

# golden name -> (command, scenario file or inline config text, exit code)
SCENARIO_CASES = {
    "contact_exp": ("contact", "contact_exp.ini", 0),
    "dpp_exp": ("dpp", "dpp_exp.ini", 0),
    "mean_exp": ("mean", "mean_exp.ini", 0),
    "sweep_square": ("sweep", "sweep_square.ini", 0),
    "validate_density": ("validate-density", "validate_density.ini", 0),
    "verify_amvp_pharm": ("verify-amvp", "verify_amvp_pharm.ini", 0),
    "verify_holo_conj": ("verify-holo", "verify_holo_conj.ini", 1),
    "verify_holo_exp": ("verify-holo", "verify_holo_exp.ini", 0),
    "verify_system_pharm": ("verify-system", "verify_system_pharm.ini", 0),
}

_STARVED = (
    "field.spec = exp\ndensity.spec = power:p=3\n"
    "points.list = 0.4+0.1i\nsweep.r0 = 1e-20\n"
)
_ZERO = "field.spec = square\ndensity.spec = power:p=3\npoints.list = 0; 0.5+0.2i\n"

INLINE_CASES = {
    f"{command.replace('-', '_')}_{kind}": (command, text, 1)
    for command in ("verify-holo", "verify-system", "verify-amvp")
    for kind, text in (("error", _STARVED), ("untestable", _ZERO))
}
INLINE_CASES["contact_untestable"] = ("contact", _ZERO, 1)
INLINE_CASES["dpp_power3"] = (
    "dpp",
    "field.spec = pharm-radial:3\ndensity.spec = power:p=3\n"
    "dpp.x0 = 0.5\ndpp.x1 = 1.1\ndpp.y0 = 0.5\ndpp.y1 = 1.1\n"
    "dpp.h = 0.1\ndpp.radius = 0.2\ndpp.init = const:1\ndpp.max_iterations = 40\n",
    0,
)

CASES = {**SCENARIO_CASES, **INLINE_CASES}


def run_case(name, workdir):
    """Run one case through ``cli.main``; return (exit code, output bytes)."""
    command, source, _ = CASES[name]
    if name in SCENARIO_CASES:
        config = os.path.join(ROOT, "scenarios", source)
    else:
        config = os.path.join(workdir, name + ".ini")
        with open(config, "w") as fh:
            fh.write(source)
    out = os.path.join(workdir, name + ".csv")
    code = main([command, "--config", config, "--out", out, "--seed", "0"])
    with open(out, "rb") as fh:
        return code, fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, data = run_case(name, str(tmp_path))
    assert code == CASES[name][2]
    with open(os.path.join(GOLDEN, name + ".csv"), "rb") as fh:
        assert data == fh.read()


def test_drift_counts_changed_cells_by_kind():
    old = b"# iterations = 29\n# converged = true\nx,re\n0.5,1.25\n0.25,nan\n"
    new = b"# iterations = 30\n# converged = false\nx,re\n0.5,1.5\n0.25,2\n"
    assert drift(old, old) == (0, 0.0, 0, 0)
    assert drift(old, new) == (4, 1.0, 2, 1)
    assert drift(old, new + b"0.125,3\n") is None


def _cells(data):
    """The cells of a CSV output: each header line's key and value, each row's fields."""
    cells = []
    for line in data.decode().splitlines():
        if line.startswith("# "):
            key, _, value = line.partition(" = ")
            cells += [key, value]
        else:
            cells += line.split(",")
    return cells


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def drift(old, new):
    """How ``new`` output bytes differ from ``old``, cell by cell.

    Returns None when the two have different cell counts, else ``(changed,
    largest, text, integer)``: the number of changed cells, the largest
    absolute change of a cell that is a finite number in both, the number
    of changed cells that are not (text, NaN), and the number of changed
    cells that are integers in both (counts such as iterations).
    """
    a, b = _cells(old), _cells(new)
    if len(a) != len(b):
        return None
    changed = [(x, y) for x, y in zip(a, b) if x != y]
    numeric = [(x, y) for x, y in changed if _finite(x) and _finite(y)]
    largest = max((abs(float(x) - float(y)) for x, y in numeric), default=0.0)
    integer = sum(x.lstrip("-").isdigit() and y.lstrip("-").isdigit() for x, y in numeric)
    return len(changed), largest, len(changed) - len(numeric), integer


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            code, data = run_case(case, tmp)
            path = os.path.join(GOLDEN, case + ".csv")
            old = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    old = fh.read()
            exit_note = f"exit {code}" + ("" if code == CASES[case][2] else
                                          f" (expected {CASES[case][2]})")
            if old == data:
                print(f"{case}: unchanged, {exit_note}", file=sys.stderr)
                continue
            with open(path, "wb") as fh:
                fh.write(data)
            moved = None if old is None else drift(old, data)
            if moved is None:
                report = "new file" if old is None else "rewritten, cell layout changed"
            else:
                report = (f"{moved[0]} cells changed, largest |change| {moved[1]:.3g}, "
                          f"{moved[2]} text cells moved, {moved[3]} integer cells moved")
            print(f"{case}: {report}, {exit_note}", file=sys.stderr)
