"""Spans around the program's public calls, kept in memory.

The traced run wraps a fixed list of public callables (functions,
methods, and the lazily built :class:`~repro.engine.pipeline.Pipeline`
stages) with recorders defined here; nothing under ``src/`` changes.
Each span has a name, start, end, parent span and operation id; spans
are written out when the run ends.  A layer's *self time* is a span's
duration minus the durations of its child spans.

Operations are closed-loop with one client, so at most one operation is
in flight: a span opened on a server thread with no enclosing span of
its own is parented to the current operation's root span.  The
benchmark flips :attr:`Recorder.enabled` per operation, which is how one
run measures both traced and untraced latency.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional, Union

#: Operation id of spans recorded while the benchmark sets up.
SETUP_OP = "setup"


class Recorder:
    """In-memory spans and counts of one traced run."""

    def __init__(self) -> None:
        self.enabled = False
        self.op: Optional[Union[int, str]] = None
        #: Kind of the current operation ("check", "query", "read", ...);
        #: decides which layer a shared call is charged to.
        self.op_kind = ""
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counts: list[tuple] = []  # (op, name, value)
        self._ids = itertools.count(1)
        self._root: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Pipelines returned by ``Pipeline.recompile_from``: their stage
        #: builds are part of the delta path.
        self.delta_pipelines: "weakref.WeakSet" = weakref.WeakSet()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, op: Union[int, str], kind: str, traced: bool):
        """Scope one operation; its root span is named ``op``."""
        self.op, self.op_kind, self.enabled = op, kind, traced
        if not traced:
            try:
                yield
            finally:
                self.enabled = False
            return
        with self.span("op") as root:
            self._root = root
            try:
                yield
            finally:
                self._root = None
        self.enabled = False

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent,
                                   self.op))

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts.append((self.op, name, value))

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op}) + "\n")
            for op, name, value in self.counts:
                handle.write(json.dumps(
                    {"count": name, "value": value, "op": op}) + "\n")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> dict:
        """``{(op, name): self seconds}`` over every recorded span."""
        child_time: dict = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict = defaultdict(float)
        for span_id, name, start, end, _, op in self.spans:
            totals[(op, name)] += end - start - child_time[span_id]
        return totals

    def outermost_times(self, name: str) -> dict:
        """``{op: seconds}`` of ``name`` spans not nested in another
        ``name`` span — the inclusive time of a path layer."""
        by_id = {record[0]: record for record in self.spans}
        totals: dict = defaultdict(float)
        for span_id, span_name, start, end, parent, op in self.spans:
            if span_name != name:
                continue
            ancestor = parent
            nested = False
            while ancestor is not None and ancestor in by_id:
                if by_id[ancestor][1] == name:
                    nested = True
                    break
                ancestor = by_id[ancestor][4]
            if not nested:
                totals[op] += end - start
        return totals

    def count_totals(self) -> dict:
        """``{(op, name): summed value}``."""
        totals: dict = defaultdict(float)
        for op, name, value in self.counts:
            totals[(op, name)] += value
        return totals


# ----------------------------------------------------------------------
# Instrumentation of the program's public calls
# ----------------------------------------------------------------------
class _TimedStage:
    """Stands in for one :class:`~repro.engine.pipeline.PipelineStage`
    descriptor: a span around the first (building) access only."""

    def __init__(self, recorder: Recorder, original, stage: str, layer: str,
                 counts: Callable[[object], dict]):
        self._recorder = recorder
        self._original = original
        self._stage = stage
        self._layer = layer
        self._counts = counts

    def __get__(self, pipeline, owner=None):
        recorder = self._recorder
        if (pipeline is None or not recorder.enabled
                or self._stage in pipeline.built_stages()):
            return self._original.__get__(pipeline, owner)
        if pipeline in recorder.delta_pipelines:
            with recorder.span("engine.delta"), recorder.span(self._layer):
                value = self._original.__get__(pipeline, owner)
        else:
            with recorder.span(self._layer):
                value = self._original.__get__(pipeline, owner)
        for name, amount in self._counts(value).items():
            recorder.count(name, amount)
        return value


def _no_counts(_result) -> dict:
    return {}


class Instrumentation:
    """Applies the wrappers; :meth:`restore` puts the originals back."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else
                           getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, function, layer: Union[str, Callable[[], str]],
              counts: Callable[[object], dict] = _no_counts):
        recorder = self.recorder
        layer_of = layer if callable(layer) else (lambda: layer)

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            with recorder.span(layer_of()):
                result = function(*args, **kwargs)
            for name, amount in counts(result).items():
                recorder.count(name, amount)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def method(self, cls: type, name: str, layer, counts=_no_counts) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(
                self._wrap(raw.__func__, layer, counts)))
        else:
            self._set(cls, name, self._wrap(raw, layer, counts))

    def function(self, function, layer, counts=_no_counts) -> None:
        """Rebind ``function`` in every loaded program module that holds
        it (``from x import f`` copies the binding into the importer)."""
        import sys

        wrapper = self._wrap(function, layer, counts)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attr, wrapper)

    def stage(self, stage: str, layer: str, counts=_no_counts) -> None:
        from repro.engine.pipeline import Pipeline

        original = Pipeline.__dict__[stage]
        self._set(Pipeline, stage,
                  _TimedStage(self.recorder, original, stage, layer, counts))

    def restore(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def instrument(recorder: Recorder) -> Instrumentation:
    """Wrap every public call a per-layer metric is read from."""
    # Import everything first, so `function` finds every binding.
    import repro.cli  # noqa: F401 - loads the modules `repro serve` uses
    from repro.engine.delta import SchemaDelta
    from repro.engine.pipeline import Pipeline
    from repro.engine.session import schema_fingerprint
    from repro.parser.parser import parse_schema
    from repro.qa.data import database_from_document
    from repro.qa.evaluator import evaluate_disjuncts
    from repro.qa.parser import parse_query
    from repro.qa.rewriter import QueryRewriter
    from repro.reasoner.satisfiability import Reasoner
    from repro.registry.registry import SchemaRegistry
    from repro.semantics.database import Database
    from repro.service.app import ReproService

    patches = Instrumentation(recorder)
    patches.stage("tables", "expansion.tables")
    patches.stage("expansion", "expansion.enumerate", lambda expansion: {
        "expansion.compound_classes": len(expansion.compound_classes)})
    patches.stage("system", "linear.system", lambda system: {
        "linear.psi_unknowns": system.n_unknowns()})
    patches.stage("support", "linear.support", lambda support: {
        "linear.lp_rounds": support.rounds,
        "linear.supported": len(support.support),
        "linear.solved_unknowns": support.system.n_unknowns()})
    patches.method(Reasoner, "is_satisfiable", "reasoner.verdict")

    def formula_layer() -> str:
        # certain_answers probes each membership combination through
        # is_formula_satisfiable; elsewhere it is a plain verdict.
        if recorder.op_kind == "query":
            return "qa.consistency"
        return "reasoner.verdict"

    def formula_counts(_verdict) -> dict:
        if recorder.op_kind == "query":
            return {"qa.consistency_probes": 1}
        return {}

    patches.method(Reasoner, "is_formula_satisfiable", formula_layer,
                   formula_counts)
    patches.function(schema_fingerprint, "engine.fingerprint")
    patches.method(SchemaDelta, "between", "engine.delta")

    def recompiled(pipeline) -> dict:
        recorder.delta_pipelines.add(pipeline)
        return {}

    patches.method(Pipeline, "recompile_from", "engine.delta", recompiled)
    patches.function(parse_schema, "parser.schema")
    patches.method(SchemaRegistry, "put", "registry.put")
    patches.method(Pipeline, "closure_index", "qa.closure")
    patches.function(parse_query, "qa.parse")
    patches.function(database_from_document, "qa.database")
    patches.method(Database, "snapshot", "qa.database")
    patches.method(QueryRewriter, "rewrite", "qa.rewrite", lambda result: {
        "qa.disjuncts": len(result.disjuncts),
        "qa.rewrite_steps": 0 if result.cached else result.steps})
    patches.function(evaluate_disjuncts, "qa.evaluate", lambda answers: {
        "qa.answers": len(answers)})
    patches.method(ReproService, "dispatch", "service.dispatch")
    patches.method(ReproService, "try_fast_dispatch", "service.dispatch")
    return patches


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Layer self times, in seconds per traced operation.
SELF_TIME_METRICS = {
    "expansion.tables_s": "expansion.tables",
    "expansion.enumerate_s": "expansion.enumerate",
    "linear.system_s": "linear.system",
    "linear.support_s": "linear.support",
    "reasoner.verdict_s": "reasoner.verdict",
    "engine.fingerprint_s": "engine.fingerprint",
    "parser.schema_s": "parser.schema",
    "registry.put_s": "registry.put",
    "qa.parse_s": "qa.parse",
    "qa.database_s": "qa.database",
    "qa.rewrite_s": "qa.rewrite",
    "qa.consistency_s": "qa.consistency",
    "qa.evaluate_s": "qa.evaluate",
    "service.dispatch_s": "service.dispatch",
    # The root span covers the client's round trip; what its children
    # (the server's dispatch) do not cover is the wire.
    "service.wire_s": "op",
}

#: Counts, per traced operation.
COUNT_METRICS = ("expansion.compound_classes", "linear.psi_unknowns",
                 "linear.lp_rounds", "qa.rewrite_steps", "qa.disjuncts",
                 "qa.consistency_probes", "qa.answers")


def layer_metrics(recorder: Recorder, traced_ops: int,
                  wire: bool) -> dict[str, float]:
    """Per-layer numbers of one traced run.

    Times and counts are means per traced operation (set-up excluded);
    ``qa.closure_s`` is the set-up total, because the closure index is
    built once per process by the warm-up.  ``engine.delta_s`` is the
    inclusive time of the delta path (diff, seeding, and the rebuilt
    stages through support).  Layers a workload never calls read 0.
    """
    per_op = max(traced_ops, 1)
    self_times = recorder.self_times()
    counts = recorder.count_totals()

    def op_total(table: dict, name: str) -> float:
        return sum(value for (op, key), value in table.items()
                   if key == name and op != SETUP_OP)

    metrics: dict[str, float] = {}
    for metric, name in SELF_TIME_METRICS.items():
        if name == "op" and not wire:
            metrics[metric] = 0.0
            continue
        metrics[metric] = op_total(self_times, name) / per_op
    delta = recorder.outermost_times("engine.delta")
    metrics["engine.delta_s"] = sum(
        value for op, value in delta.items() if op != SETUP_OP) / per_op
    metrics["qa.closure_s"] = sum(
        value for (op, key), value in self_times.items()
        if key == "qa.closure")
    for name in COUNT_METRICS:
        metrics[name] = op_total(counts, name) / per_op
    solved = op_total(counts, "linear.solved_unknowns")
    metrics["linear.supported_ratio"] = (
        op_total(counts, "linear.supported") / solved if solved else 0.0)
    return metrics
