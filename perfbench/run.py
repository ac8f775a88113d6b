"""Benchmark of holomeans: DPP solves, verdict grids and the shipped scenarios.

Run from the repository root:

    python3 perfbench/run.py --workload verdict-grid --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run repeats the workload's calls in turn for about
``--seconds``; ``run_s`` is the sum over the calls of each call's median
time.  Spread over the same time, it sets the workload up several times in
child processes; ``setup_s`` is their median.  Between calls, and after
every DPP sweep, it times a fixed calibration kernel, and it reports both
times scaled to the speed at which that kernel's median is
REFERENCE_KERNEL_S, so that a shared machine's changing speed cancels out.
With ``--trace 1`` it makes an untraced, a traced and another untraced
pass, checks that all give the same outputs bit for bit, and reports the
per-layer metrics from the traced pass's spans.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every figure by name with its unit.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORKLOAD_NAMES = ("dpp-quadratic", "dpp-power4", "verdict-grid", "scenarios")
SETUP_REPEATS = 15
# Median time of calibration_kernel (workloads.py) that times are scaled to:
# about its median on the 2-core VM described in NOTES.md.
REFERENCE_KERNEL_S = 2.3e-4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def limit_threads():
    """Run BLAS/OpenMP on one thread; set before numpy is imported.

    Two OpenBLAS threads gave the same wall time at 2.5x the CPU time on a
    2-core machine, so one thread keeps the load to one process and core.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_holomeans():
    """Import holomeans from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "holomeans")):
        raise BenchmarkError(f"no holomeans package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import holomeans

    if not os.path.abspath(holomeans.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported holomeans from {holomeans.__file__}, not {SRC}")
    return holomeans


def set_up(workload, seed):
    """Import holomeans (and numpy with it) and build the workload's inputs."""
    hm = import_holomeans()
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    return hm, spec.setup(hm, seed), spec


def time_setup(workload, seed):
    """Wall time of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "holomeans", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + fh.read())
    return h.hexdigest()[:16]


def stamp(args):
    import numpy

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": source_digest(),
    }


def consistency_failures(passes):
    """Outputs of later passes that differ from the first pass's."""
    first = passes[0].outputs
    return [
        (index, key)
        for index, p in enumerate(passes[1:], start=2)
        for key in sorted(set(first) | set(p.outputs))
        if p.outputs.get(key) != first.get(key)
    ]


def repeat_calls(calls, seconds, probe, calibration):
    """Make the calls in turn, round after round, for about ``seconds``.

    The first round is always complete.  After it, the loop stops at the
    first call whose previous time would take it past ``seconds``.  Between
    calls it runs ``probe`` SETUP_REPEATS times, evenly over ``seconds``, so
    that the set-ups meet the same spells of a shared machine as the calls;
    time in ``probe`` does not count towards ``seconds``.  Returns the first
    result of each call, each call's times, the repeats whose output
    differed from the first, and the probes' results.
    """
    from workloads import timed

    first, times, mismatched = {}, {call.label: [] for call in calls}, []
    probes = []
    start = time.perf_counter()
    paused = 0.0

    def elapsed():
        return time.perf_counter() - start - paused

    while True:
        for call in calls:
            while len(probes) < SETUP_REPEATS and elapsed() >= len(probes) * seconds / SETUP_REPEATS:
                t = time.perf_counter()
                probes.append(probe())
                paused += time.perf_counter() - t
            samples = times[call.label]
            if samples and elapsed() + samples[-1] > seconds:
                while len(probes) < SETUP_REPEATS:
                    probes.append(probe())
                return first, times, mismatched, probes
            result, seconds_taken, output = timed(call, calibration)
            samples.append(seconds_taken)
            if call.label not in first:
                first[call.label] = (result, output)
            elif output != first[call.label][1]:
                mismatched.append((len(samples), call.label))


def measured_run(args, workdir):
    from workloads import Calibration, timing_figures

    hm, inputs, workload = set_up(args.workload, args.seed)
    calibration = Calibration()
    calls = workload.calls(hm, inputs, workdir, calibration)
    first, times, mismatched, setup_samples = repeat_calls(
        calls, args.seconds, functools.partial(time_setup, args.workload, args.seed),
        calibration)
    # A repeat re-checks the same operation, so the operations are those of
    # one round; a repeat whose output differs from the first is one failure.
    results = {label: result for label, (result, _) in first.items()}
    attempted, failed, _, figures = workload.check(hm, inputs, workdir, results)
    failed += len(mismatched)

    kernel_s = statistics.median(calibration.samples)
    scale = REFERENCE_KERNEL_S / kernel_s
    medians = {label: statistics.median(samples) for label, samples in times.items()}
    raw_run_s = sum(medians.values())
    raw_setup_s = statistics.median(setup_samples)
    counts = [len(samples) for samples in times.values()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [
        f"kernel_ms = {1e3 * kernel_s:.6f} ms (median of {len(calibration.samples)} "
        f"calibration samples; reference {1e3 * REFERENCE_KERNEL_S:g} ms, scale {scale:.4f})",
        f"setup_s = {raw_setup_s * scale:.6f} s at reference speed "
        f"(raw median of {len(setup_samples)}: {raw_setup_s:.6f} s)",
        f"run_s = {raw_run_s * scale:.6f} s at reference speed (raw {raw_run_s:.6f} s: "
        f"sum over {len(calls)} calls of the median of {min(counts)}-{max(counts)} repeats each)",
        f"peak_rss_mb = {peak_rss_mb:.3f} MB",
        f"failed_share = {failed / attempted:.6f} ratio ({failed} failed of {attempted} attempted)",
    ]
    figures.update(timing_figures(calls, {k: v * scale for k, v in medians.items()}))
    for name, (value, unit) in figures.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    call_s = [t for samples in times.values() for t in samples]
    lines.append(f"call_p50_ms = {1e3 * statistics.median(call_s) * scale:.4f} ms "
                 f"at reference speed (n={len(call_s)})")
    for index, label in mismatched:
        lines.append(f"nondeterministic output: repeat {index} of {label}")
    metrics = {
        "setup_s": {"value": raw_setup_s * scale, "unit": "s"},
        "run_s": {"value": raw_run_s * scale, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return lines, not mismatched, attempted, failed, metrics


def traced_run(args, workdir):
    from layers import PER_LAYER, Aggregate, targets
    from tracer import Tracer, aggregate
    from workloads import run_pass

    hm, inputs, workload = set_up(args.workload, args.seed)
    # The first pass pays one-off costs; the untraced pass after the traced
    # one is the baseline for the overhead.
    warm_up = run_pass(workload, hm, inputs, workdir)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    tracer.install("holomeans", targets(tracer))
    try:
        traced = run_pass(workload, hm, inputs, workdir)
    finally:
        tracer.uninstall()
    untraced = run_pass(workload, hm, inputs, workdir)
    mismatched = consistency_failures([warm_up, traced, untraced])

    span_path = os.path.join(OUT_DIR, f"spans-{run_id}.jsonl")
    tracer.write(span_path)
    agg = Aggregate(aggregate(tracer.spans))
    metrics = {
        name: {"value": float(value(agg, traced)), "unit": unit}
        for name, unit, _, value in PER_LAYER
    }
    overhead = traced.run_s - untraced.run_s
    metrics["trace.untraced_run_s"] = {"value": untraced.run_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.spans"] = {"value": float(len(tracer.spans)), "unit": "count"}
    lines = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"tracing overhead: traced run_s {traced.run_s:.4f} s - untraced run_s "
        f"{untraced.run_s:.4f} s = {overhead:.4f} s ({overhead / untraced.run_s:+.1%})"
    )
    lines.append(f"spans written to {os.path.relpath(span_path, ROOT)}")
    for index, key in mismatched:
        lines.append(f"output of pass {index} differs from the first untraced pass: {key}")
    return lines, not mismatched, traced.attempted, traced.failed + len(mismatched), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    limit_threads()

    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            set_up(args.workload, args.seed)
            print(repr(time.perf_counter() - t0))
            return 0
        import_holomeans()
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            run = traced_run if args.trace else measured_run
            lines, correct, attempted, failed, metrics = run(args, workdir)
    except (BenchmarkError, ImportError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("stamp = " + json.dumps(stamp(args), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
