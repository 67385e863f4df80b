"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions below and `numpy.linalg.eigh`,
rebinding each name in every `stokes_squeeze` module that holds it, so calls
between modules are seen as well as calls from the benchmark.  Nothing under
src/ changes.  A wrapper records a span (name, start, end, parent, op id,
work) only while an op is running, so oracle checks between ops stay out of
the trace.  Spans are kept in memory, written out at the end to
.bench_work/traces/<workload>.json.gz, and self time is derived from them.

A name a later version of the package no longer defines is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from pathlib import Path

#: stokes_squeeze module -> public functions traced in it
TRACED = {
    "spin_core": (
        "stokes_operator",
        "expectation",
        "variance",
        "hermitian_exponential",
        "normalized_state",
    ),
    "states": ("triphoton_state", "coherent_state", "noon_state"),
    "elements": ("rotate_about", "vpp_success_probability"),
    "squeezing": (
        "squeezing_report",
        "mean_polarization",
        "bloch_frame",
        "variance_ellipse",
        "extremal_variances",
        "qfi_pure",
    ),
    "husimi": ("q_grid",),
    "cli": ("main", "cmd_sweep", "cmd_husimi", "sweep_record"),
}
EIGH = "numpy.linalg.eigh"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns) + (EIGH,)


def _eigh_work(args) -> int:
    """Computed work of one eigh call: sum of dim^3 over the stacked matrices."""
    shape = getattr(args[0], "shape", ())
    return shape[-1] ** 3 * math.prod(shape[:-2]) if len(shape) >= 2 else 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id, work)
        self.op: int | None = None  # id of the running op; None between ops
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op, work(args) if work else 0)

        return traced

    def _rebind(self, holders, original, wrapper) -> None:
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._restore.append((holder, attr, original))

    def install(self) -> None:
        import numpy.linalg

        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "stokes_squeeze" or name.startswith("stokes_squeeze.")
        ]
        for mod_name, functions in TRACED.items():
            home = sys.modules.get(f"stokes_squeeze.{mod_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if callable(original):
                    self._rebind(modules, original, self._wrap(f"{mod_name}.{fn_name}", original))
        eigh = numpy.linalg.eigh
        self._rebind([numpy.linalg, *modules], eigh, self._wrap(EIGH, eigh, _eigh_work))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def summarize(self, n_ops: int, op_seconds: float) -> dict:
        """Per-op calls and self time of every traced name, plus coverage.

        Self time is a span's duration minus its children's; spans of one
        thread nest without overlap, so the children's sum is their union.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        work, top = 0, 0.0
        for index, (name, start, end, parent, _, w) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[index]
            work += w
            if parent < 0:
                top += end - start
        ops = max(n_ops, 1)
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls_per_op"] = (calls[name] / ops, "count")
            metrics[f"{name}.self_ms_per_op"] = (1e3 * self_s[name] / ops, "ms")
        metrics[f"{EIGH}.dim3_per_op"] = (work / ops, "dim3")
        metrics["trace.coverage"] = (top / op_seconds if op_seconds > 0 else 0.0, "ratio")
        return metrics

    def write(self, path: Path, **meta) -> None:
        """Write the spans, gzipped JSON, with `meta` (workload, seed) beside them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op", "work"]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump({**meta, "fields": fields, "spans": self.spans}, handle)
