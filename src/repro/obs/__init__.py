"""Observability: structured tracing, metrics, and profiling hooks.

The two-phase decision procedure has sharply different cost profiles per
stage — exponential compound-class enumeration versus LP solving — so
knowing *where* time and space go per query is a prerequisite for any
further scaling work.  This package is the cross-cutting layer that
answers that question:

* :class:`~repro.obs.tracer.Tracer` — a lightweight event/metric bus with
  **span contexts** (monotonic wall-clock intervals, nested), **counters**
  (monotone accumulators: compound classes enumerated, candidates pruned,
  memo hits, LP pivots, fallbacks), and **gauges** (last-value samples:
  cache occupancy);
* :data:`~repro.obs.tracer.NULL_TRACER` — the disabled bus, a no-op
  singleton, so the hot path pays a single dynamic dispatch per *batch*
  of events (instrumented loops count locally and report once);
* the **ambient tracer** (:func:`~repro.obs.tracer.use_tracer` /
  :func:`~repro.obs.tracer.current_tracer`) — the only way code reaches
  the bus.  Entry points own a tracer and install it with ``use_tracer``;
  every layer underneath reads ``current_tracer()`` once per call, so a
  cached pipeline records into whichever tracer is active for the call
  at hand, not the one active when it was built;
* a **versioned JSON-lines trace format**
  (:data:`~repro.obs.tracer.TRACE_SCHEMA_VERSION`) consumed by the CLI's
  ``--trace-out`` flag and the benchmark recorder.

Wiring: :class:`~repro.engine.pipeline.Pipeline` opens one span per stage,
the expansion builder and the DPLL enumeration report pruning/memo
counters, the LP backends report pivot/fallback/degeneracy metrics, and
:class:`~repro.engine.session.SchemaSession` reports cache hit/miss/
eviction gauges.  ``with use_tracer(Tracer()):`` switches it all on.
"""

from .tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    TRACE_SCHEMA_VERSION,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "current_tracer",
    "use_tracer",
]
