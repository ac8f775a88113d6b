"""Write the reference CSVs the scenarios workload compares against.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/make_references.py

Every scenario runs through holomeans.cli.main with seed 0, as the
benchmark runs it, and its CSV is stored under perfbench/reference/.
"""

import os
import sys

import run


def main():
    run.limit_threads()
    run.import_holomeans()
    import holomeans.cli
    from workloads import REFERENCE_DIR, ROOT, SCENARIOS, ScenarioInputs, scenario_argv

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    paths = {name: os.path.join(ROOT, "scenarios", name) for name, _, _ in SCENARIOS}
    inputs = ScenarioInputs(holomeans.cli, paths, {}, 0)
    for name, command, expected_code in SCENARIOS:
        out = os.path.join(REFERENCE_DIR, name[:-4] + ".csv")
        code = holomeans.cli.main(scenario_argv(inputs, name, command, out))
        if code != expected_code:
            print(f"{name}: exit code {code}, expected {expected_code}", file=sys.stderr)
            return 1
        print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
