"""Experiment "observability": the tracing bus must be free when off.

The tracer is wired through every pipeline stage, the expansion
enumerators, and the LP backends, so the disabled path (:data:`NULL_TRACER`)
is on the hot path of *every* reasoning call.  The acceptance bar is that
tracing disabled costs under 5% of the workload's wall clock.  Two
measurements back that up:

* an instrumentation census — run the workload once with a counting tracer
  installed to learn exactly how many span/counter/gauge touches the
  pipeline makes, microbenchmark the no-op primitives, and bound the total
  disabled-path cost against the measured runtime;
* a wall-clock comparison of the same workload with tracing disabled vs
  enabled, as a sanity table (enabled does strictly more work).
"""

import time

import pytest

from benchlib import best_of, render_table
from repro.obs.tracer import Tracer, current_tracer, use_tracer
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import wide_attribute_schema


class _CountingTracer(Tracer):
    """A real tracer that additionally counts every instrumentation call."""

    def __init__(self):
        super().__init__()
        self.touches = 0

    def span(self, name):
        self.touches += 1
        return super().span(name)

    def add(self, name, amount=1):
        self.touches += 1
        super().add(name, amount)

    def gauge(self, name, value):
        self.touches += 1
        super().gauge(name, value)


def _run():
    """The workload, recording into whatever tracer is ambient."""
    return Reasoner(wide_attribute_schema(40)).is_satisfiable("C0")


def _traced_run():
    with use_tracer(Tracer()):
        return _run()


def _null_percall(calls: int = 200_000) -> float:
    """Seconds per disabled touch: each span-plus-counter pair also pays
    the ambient read (``current_tracer()``) that reaches the null bus."""
    start = time.perf_counter()
    for _ in range(calls):
        tracer = current_tracer()
        with tracer.span("bench"):
            pass
        tracer.add("bench", 3)
    return (time.perf_counter() - start) / (2 * calls)


@pytest.mark.experiment("observability")
def test_disabled_tracing_overhead_under_5_percent(benchmark):
    def measure():
        # Census: how many tracer touches does one full pipeline run make?
        counting = _CountingTracer()
        with use_tracer(counting):
            _run()
        touches = counting.touches

        disabled_s = best_of(_run, rounds=3)
        enabled_s = best_of(_traced_run, rounds=3)
        percall_s = _null_percall()
        bound_s = touches * percall_s
        return touches, percall_s, bound_s, disabled_s, enabled_s

    touches, percall_s, bound_s, disabled_s, enabled_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    print()
    print(render_table(
        "disabled-tracing overhead bound (wide_attribute_schema(40))",
        ["touches", "null ns/call", "bound ms", "disabled ms", "enabled ms",
         "bound %"],
        [(touches, percall_s * 1e9, bound_s * 1e3, disabled_s * 1e3,
          enabled_s * 1e3, 100 * bound_s / disabled_s)]))

    # Acceptance bar: every no-op touch the pipeline makes, added up at the
    # measured per-call cost, stays under 5% of the workload's wall clock.
    assert bound_s < 0.05 * disabled_s, (
        f"disabled tracing bound {bound_s:.6f}s is >=5% of "
        f"{disabled_s:.6f}s runtime")
    # Sanity: enabling tracing does not make the run faster (generous noise
    # margin — enabled does strictly more bookkeeping).
    assert disabled_s <= enabled_s * 1.25


@pytest.mark.experiment("observability")
def test_traced_and_untraced_verdicts_identical(benchmark):
    def verdicts():
        return _run(), _traced_run()

    untraced, traced = benchmark.pedantic(verdicts, rounds=1, iterations=1)
    assert untraced == traced
