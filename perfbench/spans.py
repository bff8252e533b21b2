"""Span tracer that observes qruler from outside the package.

``Tracer.install`` replaces each public function listed in ``LAYERS`` at
every qruler module attribute bound to it (``qruler.coherence``,
``qruler.scenarios``, ``qruler.cli``, ...), because each caller resolves
the name in its own module.  ``CoherenceFunction.shifted`` is wrapped on
its class, and every ``ScenarioRun`` returned by a wrapped ``run_*`` gets
its ``family`` wrapped too.  ``uninstall`` restores the originals.

A span is ``[name, start_ns, end_ns, parent, op, attrs, ok]``; spans stay
in memory until ``write``.  Self time is a span's duration minus that of
its children.  ``layer_metrics`` turns spans into the per-layer metrics
that BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
import os
import re
import statistics
import sys
import time

from qruler.coherence import CoherenceFunction


def _kernel(args, result):
    return {"n": result.grid.n_points, "bytes": result.kernel.nbytes}


def _probe_size(args, result):
    return {"n": args[0].grid.n_points}


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (defining module, function, span name, attributes recorded from args/result)
LAYERS = (
    ("qruler.grids", "grid_for_gaussian", "grids.grid_for_gaussian", None),
    ("qruler.states", "make_gaussian_probe", "states.make_gaussian_probe", None),
    ("qruler.states", "make_sg_probe", "states.make_sg_probe", None),
    ("qruler.ruler", "make_gaussian_ruler", "ruler.make_gaussian_ruler", _kernel),
    ("qruler.ruler", "make_ideal_ruler", "ruler.make_ideal_ruler", _kernel),
    ("qruler.ruler", "validate_ruler", "ruler.validate_ruler", None),
    ("qruler.coherence", "coherence_function", "coherence.coherence_function", _probe_size),
    ("qruler.coherence", "statistics_from_coherence", "coherence.statistics_from_coherence", None),
    ("qruler.coherence", "coherence_time", "coherence.widths", None),
    ("qruler.coherence", "signal_uncertainty", "coherence.widths", None),
    ("qruler.coherence", "wk_product", "coherence.widths", None),
    ("qruler.fisher", "fisher_from_family", "fisher.fisher_from_family", None),
    ("qruler.scenarios", "run_linear", "scenarios.run.linear", None),
    ("qruler.scenarios", "run_phase_gaussian", "scenarios.run.phase_gaussian", None),
    ("qruler.scenarios", "run_phase_sg", "scenarios.run.phase_sg", None),
    ("qruler.scenarios", "run_nonlinear", "scenarios.run.nonlinear", None),
    ("qruler.scenarios", "run_phase_coherent_squeezed",
     "scenarios.run.phase_coherent_squeezed", None),
    ("qruler.budget", "optimize_linear", "budget.optimize", None),
    ("qruler.budget", "optimize_nonlinear", "budget.optimize", None),
    ("qruler.budget", "sweep_budget", "budget.sweep_budget", None),
    ("qruler.output", "write_csv", "output.write", _file_size),
    ("qruler.output", "write_json", "output.write", _file_size),
    ("qruler.output", "write_manifest", "output.write", None),
    ("qruler.cli", "main", "cli.main", None),
)

NAME, START, END, PARENT, OP, ATTRS, OK = range(7)
OP_SPAN = "op"
FAMILY = "scenarios.family."
FISHER = "fisher.fisher_from_family"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None           # id of the op whose calls are being recorded
        self.installed = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for module, attr, name, attrs in LAYERS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(original, name, attrs)
            if name.startswith("scenarios.run."):
                wrapper = self._wrap_family_of(wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qruler" or mod_name.startswith("qruler."):
                    for key, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))
        shifted = CoherenceFunction.__dict__["shifted"]
        self._patches.append(
            (CoherenceFunction, "shifted", shifted, self.wrap(shifted, "coherence.shifted"))
        )

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)
        self.installed = False

    @contextlib.contextmanager
    def recording(self, op=None):
        """Installed for the block; calls outside a timed op belong to ``op``."""
        self.install()
        self.op = op
        try:
            yield
        finally:
            self.uninstall()
            self.op = None

    def wrap(self, fn, name, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.installed:
                return fn(*args, **kwargs)
            span = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            span[OK] = True
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced

    def _wrap_family_of(self, run_fn):
        @functools.wraps(run_fn)
        def traced_run(*args, **kwargs):
            run = run_fn(*args, **kwargs)
            if not self.installed:
                return run
            family = self.wrap(run.family, FAMILY + run.scenario)
            return dataclasses.replace(run, family=family)

        return traced_run

    def _begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, self.op, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op):
        """Root span of one timed op; its self time is the unattributed remainder."""
        self.op = op
        span = self._begin(OP_SPAN)
        try:
            yield
            span[OK] = True
        finally:
            self._end(span)
            self.op = None

    def self_times_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "attrs", "ok"],
                       "spans": self.spans}, fh, separators=(",", ":"))


_TIMED = re.compile(r"(?P<span>.+?)(?:\.n(?P<n>\d+))?\.(?:self_)?ms")


WARMUP = "warmup"
COVER = "cover-"


def layer_metrics(tracer: Tracer, metric_names) -> tuple[dict[str, tuple[float, int]], dict]:
    """Per-layer metric name -> (value, sample count) from recorded spans.

    ``<span>[.n<size>].ms`` and ``<span>.self_ms`` are the median self time
    per call in ms (grid size ``n`` where given).  Values come from the
    workload's own spans, set-up included and warm-up left out; a layer the
    workload never calls takes its value from the coverage ops (op ids
    starting with ``COVER``) instead.  The second result names, for each
    metric, which of the two it came from.  ``trace.*`` metrics come from
    the runner, not from spans.
    """
    spans = tracer.spans
    self_ns = tracer.self_times_ns()
    covered = [str(s[OP]).startswith(COVER) for s in spans]
    own = [k for k, s in enumerate(spans) if s[OP] != WARMUP and not covered[k]]
    cover = [k for k in range(len(spans)) if covered[k]]
    out: dict[str, tuple[float, int]] = {}
    source: dict[str, str] = {}
    for metric in metric_names:
        if metric.startswith("trace."):
            continue
        out[metric], source[metric] = _metric(spans, self_ns, own, metric), "workload"
        if out[metric][1] == 0:
            out[metric], source[metric] = _metric(spans, self_ns, cover, metric), "coverage"
    return out, source


def _metric(spans, self_ns, keep, metric) -> tuple[float, int]:
    """One per-layer metric over the spans indexed by ``keep``; count 0 if none apply."""

    def median_ms(selected):
        vals = [self_ns[k] / 1e6 for k in selected]
        return (statistics.median(vals) if vals else 0.0, len(vals))

    def named(name):
        return [k for k in keep if spans[k][NAME] == name]

    if metric == "op.unattributed_ms":
        return median_ms(named(OP_SPAN))
    if metric == "ruler.kernel_bytes":
        sizes = [spans[k][ATTRS]["bytes"] for k in keep
                 if spans[k][NAME].startswith("ruler.make_") and spans[k][OK]]
        return (float(max(sizes, default=0)), len(sizes))
    if metric == "output.bytes":
        per_op: dict[object, int] = {}
        for k in named("output.write"):
            if spans[k][ATTRS] is not None:
                op = spans[k][OP]
                per_op[op] = per_op.get(op, 0) + spans[k][ATTRS]["bytes"]
        vals = list(per_op.values())
        return (float(statistics.median(vals)) if vals else 0.0, len(vals))
    if metric == "fisher.accept_ratio":
        evals = named(FISHER)
        ok = sum(spans[k][OK] for k in evals)
        return (ok / len(evals) if evals else 0.0, len(evals))
    if metric == "fisher.family_calls_per_eval":
        evals = set(named(FISHER))
        calls = sum(1 for k in keep
                    if spans[k][NAME].startswith(FAMILY) and spans[k][PARENT] in evals)
        return (calls / len(evals) if evals else 0.0, len(evals))
    m = _TIMED.fullmatch(metric)
    if m is None:
        raise ValueError(f"no span rule for per-layer metric {metric!r}")
    n = None if m["n"] is None else int(m["n"])
    return median_ms(k for k in named(m["span"])
                     if n is None or (spans[k][ATTRS] or {}).get("n") == n)
