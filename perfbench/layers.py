"""Trace targets and the per-layer metrics computed from their spans.

Layers are the holomeans modules.  ``fields`` has no metric of its own: its
evaluations are counted at ``geometry.sample_field`` and ``dpp.interpolate``.

Byte counts are computed from array sizes, not measured: they count the
bytes of the arrays a kernel reads and writes at its interface and ignore
caches.  On the machine this was written on the working sets fit in the
last-level cache, so they are not a bandwidth figure.
"""

from __future__ import annotations

import os

import numpy as np

COMPLEX_BYTES = 16
# interpolate: reads the point and its four complex corner values, writes
# one complex sample.
INTERPOLATE_BYTES_PER_POINT = 6 * COMPLEX_BYTES
RISE_BURN_IN = 20


def residual_rises(history):
    """Sweeps whose sup residual exceeds the previous one, after the burn-in."""
    return int(np.count_nonzero(np.diff(np.asarray(history)[RISE_BURN_IN:]) > 0.0))


def _solve_counts(args, kwargs, result):
    return {
        "sweeps": int(result.iterations),
        "residual_rises": residual_rises(result.residual_history),
    }


def _interpolate_counts(args, kwargs, result):
    points = int(np.size(result))
    return {"points": points, "bytes_computed": points * INTERPOLATE_BYTES_PER_POINT}


def _fit_counts(args, kwargs, result):
    rows, nodes = np.shape(args[1])
    iterations = int(np.sum(result["iterations"]))
    status = np.asarray(result["status"])
    # Passes over the (rows, nodes) sample matrix: the mean-slope pass, the
    # first gradient and the final objective per row, then a gradient and at
    # least one line-search objective per Newton iteration.
    passes = 3 * rows + 2 * iterations
    return {
        "rows": int(rows),
        "row_nodes": int(rows * nodes),
        "newton_iters": iterations,
        "converged_rows": int(np.count_nonzero(status == 1)),
        "fallback_rows": int(np.count_nonzero(status == 2)),
        "failed_rows": int(np.count_nonzero(status == 3)),
        "bytes_computed": int(passes * nodes * COMPLEX_BYTES),
    }


def _points_counts(args, kwargs, result):
    return {"points": int(np.size(result))}


def _values_counts(args, kwargs, result):
    return {"values": int(np.size(result))}


def _sweep_counts(args, kwargs, result):
    return {"failed_radii": len(result.failures)}


def _contact_counts(args, kwargs, result):
    return {"rows": len(result.rows)}


def _file_counts(path):
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _cli_counts(args, kwargs, result):
    argv = list(args[0] if args else kwargs["argv"])
    if "--out" not in argv:
        return {"output_bytes": 0}
    return {"output_bytes": _file_counts(argv[argv.index("--out") + 1])["bytes"]}


def targets(tracer):
    """(module, attribute, span name, counter, result hook) for every wrapped call."""

    def traced_conjugate(density):
        return tracer.traced_density(density, "density.conjugate_deriv", _values_counts)

    return (
        ("holomeans.dpp", "dpp_solve", "dpp.dpp_solve", _solve_counts, None),
        ("holomeans.dpp", "dpp_step", "dpp.dpp_step", None, None),
        ("holomeans.dpp", "interpolate", "dpp.interpolate", _interpolate_counts, None),
        ("holomeans.dpp", "write_checkpoint", "dpp.write_checkpoint",
         lambda a, k, r: _file_counts(a[1]), None),
        ("holomeans.dpp", "read_checkpoint", "dpp.read_checkpoint",
         lambda a, k, r: _file_counts(a[0]), None),
        ("holomeans.means", "fit_model_coefficient", "means.fit_model_coefficient",
         _fit_counts, None),
        ("holomeans.means", "variational_circle_mean", "means.variational_circle_mean",
         None, None),
        ("holomeans.means", "conjugate_transformed_mean",
         "means.conjugate_transformed_mean", None, None),
        ("holomeans.means", "pair_mean", "means.pair_mean", None, None),
        ("holomeans.density", "young_conjugate", "density.young_conjugate", None,
         traced_conjugate),
        ("holomeans.geometry", "sample_field", "geometry.sample_field", _points_counts, None),
        ("holomeans.geometry", "wirtinger_jet", "geometry.wirtinger_jet", None, None),
        ("holomeans.asymptotics", "sweep", "asymptotics.sweep", _sweep_counts, None),
        ("holomeans.asymptotics", "extrapolate", "asymptotics.extrapolate", None, None),
        ("holomeans.asymptotics", "holomorphy_verdict", "asymptotics.holomorphy_verdict",
         None, None),
        ("holomeans.asymptotics", "system_verdict", "asymptotics.system_verdict", None, None),
        ("holomeans.asymptotics", "amvp_verdict", "asymptotics.amvp_verdict", None, None),
        ("holomeans.pdesystem", "cr_residual", "pdesystem.cr_residual", None, None),
        ("holomeans.contact", "contact_solution_verdict", "contact.contact_solution_verdict",
         _contact_counts, None),
        ("holomeans.cli", "main", "cli.main", _cli_counts, None),
    )


class Aggregate:
    """Read access to ``tracer.aggregate`` output; absent spans read as zero."""

    def __init__(self, table):
        self.table = table

    def _entry(self, name):
        return self.table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "durations": [], "counts": {}})

    def calls(self, name):
        return self._entry(name)["calls"]

    def s(self, name):
        return self._entry(name)["s"]

    def self_s(self, name):
        return self._entry(name)["self_s"]

    def count(self, name, key):
        return self._entry(name)["counts"].get(key, 0)

    def percentile_ms(self, name, q):
        durations = self._entry(name)["durations"]
        return 1e3 * float(np.percentile(durations, q)) if durations else 0.0


def _share(part, whole):
    return part / whole if whole else 0.0


FIT = "means.fit_model_coefficient"

# (metric, unit, better, value from the span aggregate and the traced pass)
PER_LAYER = (
    ("dpp.sweeps", "count", "lower", lambda a, p: a.count("dpp.dpp_solve", "sweeps")),
    ("dpp.residual_rises", "count", "lower",
     lambda a, p: a.count("dpp.dpp_solve", "residual_rises")),
    ("dpp.dpp_step.self_s", "s", "lower", lambda a, p: a.self_s("dpp.dpp_step")),
    ("dpp.step_p50_ms", "ms", "lower", lambda a, p: a.percentile_ms("dpp.dpp_step", 50)),
    ("dpp.step_p95_ms", "ms", "lower", lambda a, p: a.percentile_ms("dpp.dpp_step", 95)),
    ("dpp.interpolate.calls", "count", "lower", lambda a, p: a.calls("dpp.interpolate")),
    ("dpp.interpolate.points", "count", "lower",
     lambda a, p: a.count("dpp.interpolate", "points")),
    ("dpp.interpolate.s", "s", "lower", lambda a, p: a.s("dpp.interpolate")),
    ("dpp.interpolate.bytes_computed", "bytes", "lower",
     lambda a, p: a.count("dpp.interpolate", "bytes_computed")),
    ("dpp.write_checkpoint.s", "s", "lower", lambda a, p: a.s("dpp.write_checkpoint")),
    ("dpp.read_checkpoint.s", "s", "lower", lambda a, p: a.s("dpp.read_checkpoint")),
    ("dpp.checkpoint.bytes", "bytes", "lower",
     lambda a, p: a.count("dpp.write_checkpoint", "bytes")),
    ("dpp.sup_error", "abs", "lower",
     lambda a, p: p.figures.get("dpp_sup_error", (0.0,))[0]),
    ("dpp.fixed_point_residual", "abs", "lower",
     lambda a, p: p.figures.get("fixed_point_residual", (0.0,))[0]),
    (f"{FIT}.calls", "count", "lower", lambda a, p: a.calls(FIT)),
    (f"{FIT}.rows", "count", "lower", lambda a, p: a.count(FIT, "rows")),
    (f"{FIT}.row_nodes", "count", "lower", lambda a, p: a.count(FIT, "row_nodes")),
    (f"{FIT}.s", "s", "lower", lambda a, p: a.s(FIT)),
    (f"{FIT}.newton_iters", "count", "lower", lambda a, p: a.count(FIT, "newton_iters")),
    (f"{FIT}.converged_share", "ratio", "higher",
     lambda a, p: _share(a.count(FIT, "converged_rows"), a.count(FIT, "rows"))),
    (f"{FIT}.fallback_rows", "count", "lower", lambda a, p: a.count(FIT, "fallback_rows")),
    (f"{FIT}.failed_rows", "count", "lower", lambda a, p: a.count(FIT, "failed_rows")),
    (f"{FIT}.bytes_computed", "bytes", "lower",
     lambda a, p: a.count(FIT, "bytes_computed")),
) + tuple(
    (f"means.{fn}.{q}", unit, "lower", lambda a, p, n=f"means.{fn}", q=q: getattr(a, q)(n))
    for fn in ("variational_circle_mean", "conjugate_transformed_mean", "pair_mean")
    for q, unit in (("calls", "count"), ("s", "s"))
) + (
    ("density.young_conjugate.calls", "count", "lower",
     lambda a, p: a.calls("density.young_conjugate")),
    ("density.conjugate_deriv.calls", "count", "lower",
     lambda a, p: a.calls("density.conjugate_deriv")),
    ("density.conjugate_deriv.values", "count", "lower",
     lambda a, p: a.count("density.conjugate_deriv", "values")),
    ("density.conjugate_deriv.s", "s", "lower", lambda a, p: a.s("density.conjugate_deriv")),
    ("geometry.sample_field.calls", "count", "lower",
     lambda a, p: a.calls("geometry.sample_field")),
    ("geometry.sample_field.points", "count", "lower",
     lambda a, p: a.count("geometry.sample_field", "points")),
    ("geometry.sample_field.s", "s", "lower", lambda a, p: a.s("geometry.sample_field")),
    ("geometry.wirtinger_jet.calls", "count", "lower",
     lambda a, p: a.calls("geometry.wirtinger_jet")),
    ("geometry.wirtinger_jet.s", "s", "lower", lambda a, p: a.s("geometry.wirtinger_jet")),
    ("asymptotics.sweep.calls", "count", "lower", lambda a, p: a.calls("asymptotics.sweep")),
    ("asymptotics.sweep.s", "s", "lower", lambda a, p: a.s("asymptotics.sweep")),
    ("asymptotics.sweep.failed_radii", "count", "lower",
     lambda a, p: a.count("asymptotics.sweep", "failed_radii")),
    ("asymptotics.extrapolate.calls", "count", "lower",
     lambda a, p: a.calls("asymptotics.extrapolate")),
    ("asymptotics.extrapolate.s", "s", "lower", lambda a, p: a.s("asymptotics.extrapolate")),
) + tuple(
    (f"asymptotics.{fn}.{q}", "s", "lower", lambda a, p, n=f"asymptotics.{fn}", q=q: getattr(a, q)(n))
    for fn in ("holomorphy_verdict", "system_verdict", "amvp_verdict")
    for q in ("s", "self_s")
) + (
    ("pdesystem.cr_residual.calls", "count", "lower",
     lambda a, p: a.calls("pdesystem.cr_residual")),
    ("pdesystem.cr_residual.s", "s", "lower", lambda a, p: a.s("pdesystem.cr_residual")),
    ("contact.contact_solution_verdict.s", "s", "lower",
     lambda a, p: a.s("contact.contact_solution_verdict")),
    ("contact.contact_solution_verdict.self_s", "s", "lower",
     lambda a, p: a.self_s("contact.contact_solution_verdict")),
    ("contact.rows", "count", "lower",
     lambda a, p: a.count("contact.contact_solution_verdict", "rows")),
    ("cli.main.calls", "count", "lower", lambda a, p: a.calls("cli.main")),
    ("cli.main.self_s", "s", "lower", lambda a, p: a.self_s("cli.main")),
    ("cli.main.p50_ms", "ms", "lower", lambda a, p: a.percentile_ms("cli.main", 50)),
    ("cli.output_bytes", "bytes", "lower", lambda a, p: a.count("cli.main", "output_bytes")),
)
