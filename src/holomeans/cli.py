"""Command line interface: scenario files in, CSV out, exit codes honoured.

Usage::

    holomeans <command> --config <path> [--out <path>] [--seed <int>]

Commands: ``mean``, ``sweep``, ``verify-holo``, ``verify-system``,
``verify-amvp``, ``contact``, ``dpp``, ``validate-density``.

The scenario file is a flat ``section.key = value`` text format; ``#``
starts a comment.  Every run logs its resolved configuration into the CSV
as ``#`` comment lines, so an output file documents how it was produced.
Runs are deterministic: the same scenario file yields byte-identical CSV.

Each ``verify-*`` run makes one batched verdict call for all its points.
A point that fails (say its sweep is left with too few radii) becomes an
``error`` row naming the error class, next to the other points' rows; the
verdict APIs instead raise the first failing point's error.

Exit codes: 0 when every verdict passes (or every solve converges), 1 when
a verdict fails, is inconclusive, or an iteration diverges (rows mark
which), 2 for configuration problems, reported with a line diagnostic.

Importing this module imports no library layer.  :func:`main` loads the
layers a command calls (``_HANDLER_LAYERS``) on its first run in the
process: ``mean`` and ``validate-density`` load none, ``sweep`` and the
``verify-*`` commands load ``asymptotics``, the ``contact`` command loads
``asymptotics`` and ``contact``, and ``dpp`` loads only ``dpp``.  A loaded
layer's public names are bound here, and reading one of them first loads
its layer.  The ``dpp``
command calls ``dpp_solve`` through this module's namespace at run time,
and loading a layer never rebinds a name that is already bound, so a
caller can swap ``holomeans.cli.dpp_solve`` for a wrapper around a run:
the ``scenarios`` workload of ``perfbench/run.py`` does so to take a
calibration sample per sweep.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import importlib
import io
import math
import pathlib
import sys

import numpy as np

from . import _LAZY, _LAZY_MODULES
from .density import power_density, validate_density
from .errors import ConfigError, DivergenceError, HolomeansError, _raise_first
from .fields import make_field, parse_complex
from .geometry import DEFAULT_CIRCLE_NODES, circle_rule
from .means import MEAN_KINDS, circle_means

__all__ = ["main", "load_scenario", "parse_density_spec"]


def _configured(call, *args, **kwargs):
    """``call(*args, **kwargs)``, a library refusal raised as a configuration error."""
    try:
        return call(*args, **kwargs)
    except HolomeansError as exc:
        raise ConfigError(str(exc)) from exc


def parse_density_spec(text):
    """Build a density from a spec such as ``power:p=3``."""
    text = str(text).strip()
    name, _, argtext = text.partition(":")
    name = name.strip()
    if name != "power":
        raise ConfigError(
            f"unknown density {name!r}; built-in densities: power:p=<real>"
        )
    params = {}
    for chunk in argtext.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, val = chunk.partition("=")
        if not eq:
            raise ConfigError(f"density parameter {chunk!r} is not key=value")
        params[key.strip()] = val.strip()
    if set(params) != {"p"}:
        raise ConfigError(
            f"density 'power' takes exactly the parameter p, got {sorted(params) or 'none'}"
        )
    try:
        p = float(params["p"])
    except ValueError as exc:
        raise ConfigError(f"density parameter p={params['p']!r} is not a number") from exc
    return _configured(power_density, p)


class Scenario:
    """Parsed flat key-value scenario with consumption tracking."""

    def __init__(self, entries, lines):
        self._entries = dict(entries)
        self._lines = dict(lines)
        self._used = set()

    def resolved(self):
        return tuple(sorted(self._entries.items()))

    def _fail(self, key, message):
        where = f"line {self._lines[key]}: " if key in self._lines else ""
        raise ConfigError(f"{where}{key}: {message}")

    def take(self, key, cast=str, default=None, required=False):
        if key not in self._entries:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        self._used.add(key)
        raw = self._entries[key]
        try:
            return cast(raw)
        except ConfigError as exc:
            self._fail(key, str(exc))
        except (ValueError, TypeError) as exc:
            self._fail(key, f"cannot parse {raw!r} ({exc})")

    def finish(self):
        unused = sorted(set(self._entries) - self._used)
        if unused:
            spots = ", ".join(
                f"{k!r} (line {self._lines[k]})" for k in unused
            )
            raise ConfigError(f"unknown keys for this command: {spots}")


def load_scenario(path):
    """Parse a flat ``key = value`` scenario file with line diagnostics."""
    entries, lines = {}, {}
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for no, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {no}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if not key or " " in key:
            raise ConfigError(f"line {no}: bad key {key!r}")
        if not value:
            raise ConfigError(f"line {no}: key {key!r} has an empty value")
        if key in entries:
            raise ConfigError(
                f"line {no}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        entries[key] = value
        lines[key] = no
    return Scenario(entries, lines)


def _point(text):
    z = parse_complex(text)
    if not cmath.isfinite(z):
        raise ValueError(f"point {text.strip()!r} is not finite")
    return z


def _as_points(text):
    pts = [_point(tok) for tok in str(text).split(";") if tok.strip()]
    if not pts:
        raise ValueError("no points given")
    return pts


def _grid_points(text):
    parts = [tok.strip() for tok in str(text).split(",")]
    if len(parts) != 6:
        raise ValueError("grid spec needs x0,x1,nx,y0,y1,ny")
    x0, x1, y0, y1 = float(parts[0]), float(parts[1]), float(parts[3]), float(parts[4])
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ValueError("grid bounds must be finite")
    nx, ny = int(parts[2]), int(parts[5])
    if nx < 1 or ny < 1:
        raise ValueError("grid counts must be positive")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    return [complex(x, y) for y in ys for x in xs]


def _take_points(sc):
    pts = sc.take("points.list", cast=_as_points)
    gpts = sc.take("points.grid", cast=_grid_points)
    if pts is not None and gpts is not None:
        raise ConfigError("give either points.list or points.grid, not both")
    if pts is None and gpts is None:
        raise ConfigError("missing points: set points.list or points.grid")
    return pts if pts is not None else gpts


def _take_config(sc, prefix, cls, fixed):
    """Build the config dataclass ``cls`` from the ``<prefix>.<field>`` keys.

    Every field of ``cls`` not in ``fixed`` is a key, cast to the type of
    the field's default.
    """
    kwargs = dict(fixed)
    for fld in dataclasses.fields(cls):
        if fld.name in kwargs:
            continue
        val = sc.take(f"{prefix}.{fld.name}", cast=type(fld.default))
        if val is not None:
            kwargs[fld.name] = val
    return _configured(cls, **kwargs)


def _sweep_config(sc, seed):
    return _take_config(sc, "sweep", SweepConfig, {"seed": seed})


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _emit(out_path, header_lines, columns, rows):
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    text = buf.getvalue()
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_output(lambda path: pathlib.Path(path).write_text(text, newline=""), out_path)


def _write_output(write, out_path):
    """``write(out_path)``, a file system refusal raised as a configuration error."""
    try:
        write(out_path)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc


def _header(command, seed, sc):
    lines = [f"command = {command}", f"seed = {seed}"]
    lines.extend(f"{k} = {v}" for k, v in sc.resolved())
    return lines


# mean kind -> (column, getter) pairs between r and status
_MEAN_COLUMNS = {
    "pair": (
        ("re_a", lambda m: m.center.minimizer.real),
        ("im_a", lambda m: m.center.minimizer.imag),
        ("re_b", lambda m: m.slope.minimizer.real),
        ("im_b", lambda m: m.slope.minimizer.imag),
        ("re_value", lambda m: m.value.real),
        ("im_value", lambda m: m.value.imag),
    ),
    "infinity": (
        ("re_c", lambda m: m.minimizer.real),
        ("im_c", lambda m: m.minimizer.imag),
        ("objective", lambda m: m.objective),
        ("support_count", lambda m: m.support_count),
    ),
}
_NEWTON_COLUMNS = (
    ("re_c", lambda m: m.minimizer.real),
    ("im_c", lambda m: m.minimizer.imag),
    ("foc_residual", lambda m: m.foc_residual),
)


def _cmd_mean(sc, seed, out):
    kind = sc.take("mean.kind", default="variational")
    if kind not in MEAN_KINDS:
        raise ConfigError(f"mean.kind must be one of {MEAN_KINDS}, got {kind!r}")
    field = sc.take("field.spec", cast=make_field, required=True)
    z = sc.take("mean.point", cast=_point, required=True)
    r = sc.take("mean.r", cast=float, required=True)
    nodes = sc.take("mean.nodes", cast=int, default=DEFAULT_CIRCLE_NODES)
    _configured(circle_rule, 0j, 1.0, nodes)  # the quadrature's node-count check
    density = None
    if kind != "infinity":
        density = sc.take("density.spec", cast=parse_density_spec, required=True)

    header = _header("mean", seed, sc)
    sc.finish()
    if not r > 0:
        raise ConfigError(f"mean.r must be positive, got {r}")
    if not math.isfinite(r):
        raise ConfigError(f"mean.r must be finite, got {r}")

    (res,) = _raise_first(circle_means(kind, field, [z], r, density, nodes, seed))
    extras = _MEAN_COLUMNS.get(kind, _NEWTON_COLUMNS)
    columns = ("r",) + tuple(name for name, _ in extras) + ("status",)
    row = (r,) + tuple(get(res) for _, get in extras) + (res.status,)
    _emit(out, header, columns, [row])
    return 0 if res.status != "failed" else 1


def _cmd_sweep(sc, seed, out):
    kind = sc.take("sweep.kind", default="variational")
    if kind not in asymptotics.SWEEP_KINDS:
        raise ConfigError(f"sweep.kind must be one of {asymptotics.SWEEP_KINDS}, got {kind!r}")
    field = sc.take("field.spec", cast=make_field, required=True)
    z = sc.take("sweep.point", cast=_point, required=True)
    cfg = _sweep_config(sc, seed)
    density = None
    if kind != "infinity":
        density = sc.take("density.spec", cast=parse_density_spec, required=True)
    header = _header("sweep", seed, sc)
    sc.finish()

    result = sweep(kind, field, z, density, cfg)
    est = extrapolate(result)
    header.extend(
        [
            f"limit_re = {_fmt(est.limit.real)}",
            f"limit_im = {_fmt(est.limit.imag)}",
            f"slope_re = {_fmt(est.slope.real)}",
            f"slope_im = {_fmt(est.slope.imag)}",
            f"fit_residual = {_fmt(est.fit_residual)}",
            f"verdict = {est.verdict}",
        ]
    )

    by_radius = dict(zip(result.radii, zip(result.values, result.statuses, result.extras)))

    columns = ("r", "re_c", "im_c", "foc_residual", "status")
    if kind == "infinity":
        columns = columns + ("support_count",)
    failed = (complex(float("nan"), float("nan")), "failed", {})
    rows = []
    for r in cfg.radii():
        r = float(r)
        value, status, extra = by_radius.get(r, failed)
        foc = extra.get("foc_residual", float("nan"))
        row = (r, value.real, value.imag, foc, status)
        if kind == "infinity":
            row = row + (extra.get("support_count", 0),)
        rows.append(row)
    _emit(out, header, columns, rows)
    return 0 if not result.failures else 1


# verify command -> (name of the ``asymptotics`` verdict row function,
#                    status attribute, passing status, extra (column, getter)
#                    pairs between fit_residual and consistent)
_VERIFY = {
    "verify-holo": ("_holomorphy_rows", "verdict", "holomorphic", (
        ("predicted_re", lambda v: v.predicted_limit.real),
        ("predicted_im", lambda v: v.predicted_limit.imag),
        ("prediction_gap", lambda v: v.prediction_gap),
    )),
    "verify-system": ("_system_rows", "status", "satisfied", (
        ("residual_re", lambda v: v.analytic_residual.real),
        ("residual_im", lambda v: v.analytic_residual.imag),
    )),
    "verify-amvp": ("_amvp_rows", "status", "holds", (
        ("bracket_re", lambda v: v.bracket.real),
        ("bracket_im", lambda v: v.bracket.imag),
        ("bracket_gap", lambda v: v.bracket_gap),
    )),
}


def _cmd_verify(command, sc, seed, out):
    """One row per point from one verdict call; a failing point is an error row."""
    rows_name, status_attr, passing, extras = _VERIFY[command]
    field = sc.take("field.spec", cast=make_field, required=True)
    density = sc.take("density.spec", cast=parse_density_spec, required=True)
    points = _take_points(sc)
    cfg = _sweep_config(sc, seed)
    header = _header(command, seed, sc)
    sc.finish()

    try:
        verdicts = getattr(asymptotics, rows_name)(field, points, density, cfg)
    except HolomeansError as exc:
        verdicts = (exc,) * len(points)
    columns = ("x", "y", "verdict", "limit_re", "limit_im", "fit_residual")
    columns += tuple(name for name, _ in extras) + ("consistent",)
    nan = float("nan")
    rows = []
    for z, v in zip(points, verdicts):
        if isinstance(v, HolomeansError):
            row = (z.real, z.imag, "error", nan, nan, nan, type(v).__name__)
            rows.append(row + ("",) * (len(columns) - len(row)))
            continue
        status = getattr(v, status_attr)
        if status == "untestable":
            values = (nan,) * (3 + len(extras))
        else:
            est = v.estimate
            values = (est.limit.real, est.limit.imag, est.fit_residual)
            values += tuple(get(v) for _, get in extras)
        rows.append((z.real, z.imag, status) + values + (v.consistent,))
    _emit(out, header, columns, rows)
    return 0 if all(row[2] == passing for row in rows) else 1


def _cmd_contact(sc, seed, out):
    field = sc.take("field.spec", cast=make_field, required=True)
    density = sc.take("density.spec", cast=parse_density_spec, required=True)
    points = _take_points(sc)
    directions = sc.take("contact.directions", cast=int, default=16)
    _configured(unit_directions, directions)  # the fan's direction-count check
    cfg = _sweep_config(sc, seed)
    header = _header("contact", seed, sc)
    sc.finish()

    report = contact_solution_verdict(field, points, density, directions, cfg)
    columns = ("x", "y", "verdict", "limit_re", "limit_im", "fit_residual",
               "xi_re", "xi_im", "envelope", "consistent")
    rows = [
        (v.point.real, v.point.imag, v.status, v.limit, 0.0, v.fit_residual,
         v.xi.real, v.xi.imag, v.envelope, v.consistent)
        for v in report.rows
    ]
    nan = float("nan")
    rows += [
        (z.real, z.imag, "untestable") + (nan,) * 6 + (False,)
        for z in report.untestable_points
    ]
    header.extend(
        [
            f"camvp_pass = {_fmt(report.camvp_pass)}",
            f"envelope_pass = {_fmt(report.envelope_pass)}",
            f"residual_pass = {_fmt(report.residual_pass)}",
            f"consistent = {_fmt(report.consistent)}",
        ]
    )
    _emit(out, header, columns, rows)
    ok = report.camvp_pass and not report.untestable_points
    return 0 if ok else 1


def _dpp_init(text):
    """The constant interior start of ``const:<complex>``."""
    if not text.startswith("const:"):
        raise ConfigError(f"must be 'const:<complex>', got {text!r}")
    return parse_complex(text[len("const:") :])


def _cmd_dpp(sc, seed, out):
    field = sc.take("field.spec", cast=make_field, required=True)
    density = sc.take("density.spec", cast=parse_density_spec, required=True)
    x0 = sc.take("dpp.x0", cast=float, required=True)
    x1 = sc.take("dpp.x1", cast=float, required=True)
    y0 = sc.take("dpp.y0", cast=float, required=True)
    y1 = sc.take("dpp.y1", cast=float, required=True)
    h = sc.take("dpp.h", cast=float, required=True)
    radius = sc.take("dpp.radius", cast=float, required=True)
    init = sc.take("dpp.init", cast=_dpp_init)
    cfg = _take_config(sc, "dpp", DppConfig, {"radius": radius})
    header = _header("dpp", seed, sc)
    sc.finish()

    grid = _configured(grid_from_function, x0, x1, y0, y1, h, radius, field)
    if init is not None:
        grid = with_interior(grid, init)

    diverged = None
    try:
        result = dpp_solve(grid, density, cfg)
        final = result.field
        converged = result.converged
        iterations = result.iterations
        residuals = result.residual_history
    except DivergenceError as exc:
        diverged = str(exc)
        final = grid
        converged = False
        iterations = len(exc.history)
        residuals = exc.history

    header.extend(
        [
            f"iterations = {iterations}",
            f"converged = {_fmt(converged)}",
            f"final_residual = {_fmt(residuals[-1] if residuals else float('nan'))}",
        ]
    )
    if diverged:
        header.append(f"diverged = {diverged}")
    if out is None:
        for line in header:
            sys.stdout.write(f"# {line}\n")
    else:
        _write_output(functools.partial(write_checkpoint, final, extra_header=header), out)
    return 0 if converged else 1


def _cmd_validate_density(sc, seed, out):
    density = sc.take("density.spec", cast=parse_density_spec, required=True)
    samples = sc.take("density.samples", cast=int, default=200)
    header = _header("validate-density", seed, sc)
    sc.finish()

    report = _configured(validate_density, density, samples)
    columns = ("check", "passed", "worst", "location", "message")
    rows = [
        (c.name, c.passed, c.worst, c.location, c.message) for c in report.checks
    ]
    header.append(f"ok = {_fmt(report.ok)}")
    _emit(out, header, columns, rows)
    return 0 if report.ok else 1


_HANDLERS = {
    "mean": _cmd_mean,
    "sweep": _cmd_sweep,
    **{command: functools.partial(_cmd_verify, command) for command in _VERIFY},
    "contact": _cmd_contact,
    "dpp": _cmd_dpp,
    "validate-density": _cmd_validate_density,
}
# command -> the library layers its handler calls, loaded by main before dispatch
_HANDLER_LAYERS = {
    "sweep": ("asymptotics",),
    **{command: ("asymptotics",) for command in _VERIFY},
    "contact": ("asymptotics", "contact"),
    "dpp": ("dpp",),
}


def _load_layer(layer):
    """Import ``layer`` and bind it and its public names here.

    A name already bound is kept: a caller may have replaced it.
    """
    module = importlib.import_module(f"{__package__}.{layer}")
    scope = globals()
    scope.setdefault(layer, module)
    for name in _LAZY_MODULES[layer]:
        scope.setdefault(name, getattr(module, name))


def __getattr__(name):
    """A layer or one of its public names, read before a command loaded it."""
    layer = name if name in _LAZY_MODULES else _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_layer(layer)
    return globals()[name]


@functools.cache
def _parser():
    """The argument parser, built on the first :func:`main` call and reused."""
    parser = argparse.ArgumentParser(
        prog="holomeans",
        description="Nonlinear variational circle means and their verdicts.",
    )
    parser.add_argument("command", choices=tuple(_HANDLERS))
    parser.add_argument("--config", required=True, help="scenario file (key = value)")
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        sc = load_scenario(args.config)
        seed = sc.take("sweep.seed", cast=int, default=0)
        if args.seed is not None:
            seed = args.seed
        for layer in _HANDLER_LAYERS.get(args.command, ()):
            _load_layer(layer)
        return _HANDLERS[args.command](sc, seed, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HolomeansError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
