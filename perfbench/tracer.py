"""Spans around every call into curvband's public functions, recorded from outside.

``Tracer.install`` replaces each module-level binding of a public function
defined in one of the layers below -- the originals and the copies other
modules imported, such as ``curvband.operator.curvatures`` or
``curvband.fields.offset_scale_factors`` -- with a wrapper that records one
span per call: operation id, span id, parent span, name, start, end, whether
the call returned, and a few computed quantities (matrix bytes, CSV bytes,
residuals, CN steps).  ``uninstall`` restores the originals.  Spans stay in
memory until ``dump`` writes them out once, at the end of a run.

Layer metrics are derived by ``layer_metrics``.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import re
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple, Optional

LAYERS = ("geometry", "fields", "operator", "solver", "config", "cli")
# span the CLI launcher records around ``import curvband.cli``; in no layer
IMPORT_SPAN = "import.curvband"
_RESIDUAL = re.compile(r"max ([0-9.]+(?:e[-+]?[0-9]+)?)")


class Span(NamedTuple):
    op: Optional[int]
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    ok: bool
    extra: Optional[float]


def _extra(name, fn):
    """Function computing a span's extra quantity from (args, kwargs, result)."""
    if name == "operator.build_tangential":
        return lambda a, k, r: float(r.matrix.nbytes)
    if name == "solver.eigen_solve":
        return lambda a, k, r: float(r.residuals.max())
    if name == "solver.evolve":
        sig = inspect.signature(fn)
        return lambda a, k, r: float(sig.bind(*a, **k).arguments["steps"])
    if name == "cli.write_csv":
        sig = inspect.signature(fn)
        return lambda a, k, r: float(os.path.getsize(sig.bind(*a, **k).arguments["path"]))
    return None


def _failure_extra(name, exc):
    """The residual a failed eigensolve reports in its message, if any."""
    if name == "solver.eigen_solve":
        match = _RESIDUAL.search(str(exc))
        if match:
            return float(match.group(1))
    return None


class Tracer:
    """In-memory span recorder; ``op`` is the id of the operation in progress."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._ids = itertools.count()
        self._saved = []

    def record(self, name, start_ns, end_ns):
        """Add a top-level span measured by the caller (e.g. an import)."""
        self.spans.append(Span(self.op, next(self._ids), None, name,
                               start_ns, end_ns, True, None))

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        extra_of = _extra(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok, extra = False, None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            except Exception as exc:
                extra = _failure_extra(name, exc)
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if ok and extra_of is not None:
                    extra = extra_of(args, kwargs, result)
                spans.append(Span(self.op, sid, parent, name, start, end, ok, extra))
            return result

        return wrapper

    def install(self):
        """Wrap every binding of a public layer function in every loaded layer module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[n] for n in
                   ["curvband"] + [f"curvband.{layer}" for layer in LAYERS]
                   if n in sys.modules]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                package, _, layer = value.__module__.rpartition(".")
                if package != "curvband" or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def dump(self, path):
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def load(path, op):
    """Spans written by ``Tracer.dump`` in another process, re-labelled with ``op``."""
    with open(path, encoding="utf-8") as fh:
        return [Span(**dict(json.loads(line), op=op)) for line in fh]


def _self_ns(spans):
    """Self time of each span, keyed by (op, id): duration minus the union of its children.

    Span ids are unique within one operation; spans loaded from separate
    processes may reuse them.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.op, s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for lo, hi in sorted(children.get((s.op, s.id), ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.op, s.id] = (s.end_ns - s.start_ns) - covered
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


# name -> unit of every per-layer metric; see layer_metrics for how each is taken
PER_LAYER = {
    "geometry.self_ms": "ms",
    "geometry.curvatures.calls": "count",
    "geometry.curvatures.self_ms": "ms",
    "geometry.offset_scale_factors.calls": "count",
    "fields.self_ms": "ms",
    "fields.is_coulomb_gauge.ms": "ms",
    "fields.divergence.calls": "count",
    "fields.divergence.self_ms": "ms",
    "operator.self_ms": "ms",
    "operator.build_tangential.calls": "count",
    "operator.build_tangential.self_ms": "ms",
    "operator.matrix_bytes": "B",
    "solver.self_ms": "ms",
    "solver.eigen_solve.calls": "count",
    "solver.eigen_solve.self_ms": "ms",
    "solver.eigen_solve.failed": "count",
    "solver.eigen_solve.residual_max": "1",
    "solver.ground_state.ms": "ms",
    "solver.evolve.self_ms": "ms",
    "solver.evolve.step_us": "us",
    "solver.hermiticity_report.calls": "count",
    "solver.hermiticity_report.self_ms": "ms",
    "config.self_ms": "ms",
    "config.parse_config.self_ms": "ms",
    "config.serialize_config.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_command.self_ms": "ms",
    "cli.write_csv.self_ms": "ms",
    "cli.write_csv.bytes": "B",
    "trace.op_ms_p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
}

# computed from array sizes or file sizes, not measured
COMPUTED = ("operator.matrix_bytes", "cli.write_csv.bytes")


def layer_metrics(spans, op_ms):
    """Per-layer metrics over the traced operations.

    ``op_ms`` maps each traced operation id to its end-to-end latency.
    Counts, bytes and self times are per-operation means, so the layer self
    times and ``trace.unattributed_ms`` add up to the mean traced latency
    (a median would read 0 for a layer that runs in fewer than half of a
    mixed workload's operations).  ``*.ms`` of a function, ``cli.import_ms``
    and ``solver.evolve.step_us`` are medians over calls;
    ``residual_max`` is the largest residual any eigensolve reported.
    ``trace.op_ms_p50`` and ``trace.overhead_ms`` are filled in by the caller.
    Returns (metrics, per-function table).
    """
    ops = sorted(op_ms)
    spans = [s for s in spans if s.op in op_ms]
    self_ns = _self_ns(spans)
    n_ops = max(1, len(ops))
    calls, failed, self_total, extra_total = (defaultdict(float) for _ in range(4))
    inclusive = defaultdict(list)
    step_us = []
    residuals = []
    top_ns = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        self_total[s.name] += self_ns[s.op, s.id]
        inclusive[s.name].append((s.end_ns - s.start_ns) / 1e6)
        if not s.ok:
            failed[s.name] += 1
        if s.extra is not None:
            extra_total[s.name] += s.extra
            if s.name == "solver.eigen_solve":
                residuals.append(s.extra)
            elif s.name == "solver.evolve" and s.extra > 0:
                step_us.append(self_ns[s.op, s.id] / 1e3 / s.extra)
        if s.parent is None and s.name != IMPORT_SPAN:
            top_ns[s.op] += s.end_ns - s.start_ns

    def per_op(table, name, scale=1.0):
        return table.get(name, 0.0) * scale / n_ops

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = sum(
            v for k, v in self_total.items() if k.split(".")[0] == layer) / 1e6 / n_ops
    for name in ("geometry.curvatures", "geometry.offset_scale_factors",
                 "fields.divergence", "operator.build_tangential",
                 "solver.eigen_solve", "solver.hermiticity_report"):
        metrics[f"{name}.calls"] = per_op(calls, name)
    for name in ("geometry.curvatures", "fields.divergence",
                 "operator.build_tangential", "solver.eigen_solve", "solver.evolve",
                 "solver.hermiticity_report", "config.parse_config",
                 "config.serialize_config", "cli.run_command", "cli.write_csv"):
        metrics[f"{name}.self_ms"] = per_op(self_total, name, 1e-6)
    metrics["fields.is_coulomb_gauge.ms"] = _median(inclusive.get("fields.is_coulomb_gauge"))
    metrics["solver.ground_state.ms"] = _median(inclusive.get("solver.ground_state"))
    metrics["cli.import_ms"] = _median(inclusive.get(IMPORT_SPAN))
    metrics["solver.evolve.step_us"] = _median(step_us)
    metrics["solver.eigen_solve.failed"] = per_op(failed, "solver.eigen_solve")
    metrics["solver.eigen_solve.residual_max"] = max(residuals, default=0.0)
    metrics["operator.matrix_bytes"] = per_op(extra_total, "operator.build_tangential")
    metrics["cli.write_csv.bytes"] = per_op(extra_total, "cli.write_csv")
    metrics["trace.unattributed_ms"] = sum(
        op_ms[op] - top_ns.get(op, 0) / 1e6 for op in ops) / n_ops

    table = {
        name: {"calls_per_op": calls[name] / n_ops,
               "failed_per_op": failed[name] / n_ops,
               "self_ms_per_op": self_total[name] / 1e6 / n_ops,
               "inclusive_ms_p50": _median(inclusive[name])}
        for name in sorted(calls)
    }
    return metrics, table
