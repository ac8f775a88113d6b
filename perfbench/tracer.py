"""In-memory span recorder for the traced benchmark run.

The tracer wraps holomeans functions at every name their callers bind: a
function object found under several module attributes (``fit_model_coefficient``
in both ``holomeans.means`` and ``holomeans.dpp``, ``sweep`` in
``holomeans.asymptotics``, ``holomeans.contact`` and ``holomeans.cli``) is
replaced by one wrapper everywhere, so calls made inside the package are
recorded too.  Nothing in the package is edited; ``uninstall`` puts the
original objects back.

A span is ``(id, name, start, end, parent id, run id, counts)``.  Spans nest
strictly (the package is single-threaded), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, func, name, count=None, result_hook=None):
        """Return ``func`` recording one span per call.

        ``count(args, kwargs, result)`` returns a dict of work counts for the
        span; it runs after the span's end time is taken.  ``result_hook``,
        when given, maps the result before it is returned to the caller.
        """
        spans = self.spans
        stack = self._stack
        run_id = self.run_id

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, run_id, None)
                raise
            end = time.perf_counter()
            stack.pop()
            counts = count(args, kwargs, result) if count is not None else None
            spans[span_id] = (span_id, name, start, end, parent, run_id, counts)
            return result if result_hook is None else result_hook(result)

        return traced

    def install(self, package, targets):
        """Wrap every ``(module, attribute, span name, counter, hook)`` target.

        Each original function is replaced under every attribute of every
        loaded ``package`` module that refers to it.  Targets in modules not
        loaded yet are skipped: nothing can call them.
        """
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for module_name, attr, name, count, hook in targets:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, count, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def traced_density(self, density, name, count=None):
        """Copy of a density whose ``deriv_fn`` records spans."""
        return dataclasses.replace(
            density, deriv_fn=self.wrap(density.deriv_fn, name, count)
        )

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, run_id, counts in self.spans:
                fh.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": run_id,
                    "counts": counts,
                }) + "\n")


def aggregate(spans):
    """Per span name: calls, total and self seconds, summed counts, durations."""
    child_time = [0.0] * len(spans)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for span_id, name, start, end, _, _, counts in spans:
        entry = out.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "counts": {}}
        )
        duration = end - start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[span_id]
        entry["durations"].append(duration)
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out
