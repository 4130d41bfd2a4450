"""Experiment "query": the rewrite cache must beat cold saturation.

Acceptance bars for the conjunctive-query answering subsystem behind
:meth:`~repro.engine.session.SchemaSession.query` and ``POST /v1/query``:

* **Warm cache speedup** — replaying a mixed star/chain/boolean workload
  against a :class:`~repro.qa.rewriter.QueryRewriter` whose cache was
  populated by a first pass must beat re-saturating from scratch by
  >= ``WARM_SPEEDUP_BAR``.  The cold side pays the full
  specialize/eliminate/unify fixpoint plus subsumption pruning per
  query; the warm side is an LRU lookup on the canonical rendering.
  (The BENCH_query.json sweep records far larger ratios; the CI bar is
  deliberately low so a loaded runner cannot flake it.)
* **Identical unions** — the warm replay must return the exact disjunct
  sets the cold pass produced, every result flagged ``cached``.  A cache
  that changes answers is a bug, not a feature.
* **Accounting** — rewrite work must flow through the ambient tracer
  (``qa.rewrite_cache_hits`` / ``qa.rewrite_cache_misses`` /
  ``qa.rewrite_steps``) — the service's ``/metrics`` endpoint
  republishes these.
"""

import pytest

from benchlib import best_of, render_table
from repro.obs.tracer import Tracer, use_tracer
from repro.qa import QueryRewriter, certain_answers, parse_query
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.query_workloads import (
    query_workload,
    sample_database,
    taxonomy_schema,
)

#: CI-safe floor; the committed BENCH_query.json records far larger ratios.
WARM_SPEEDUP_BAR = 5.0


def _parsed_workload(schema, **kwargs):
    suite = query_workload(schema, **kwargs)
    return [parse_query(source, schema) for _, source in suite]


def test_warm_rewrite_cache_beats_cold_saturation():
    schema = taxonomy_schema(2, 3)
    reasoner = Reasoner(schema)
    closure = reasoner.pipeline.closure_index()
    queries = _parsed_workload(schema, per_shape=4, seed=3)

    def run_cold():
        # A fresh rewriter per round: every query pays full saturation.
        rewriter = QueryRewriter(closure)
        return [rewriter.rewrite(query) for query in queries]

    warm_rewriter = QueryRewriter(closure)
    cold_results = [warm_rewriter.rewrite(query) for query in queries]

    def run_warm():
        return [warm_rewriter.rewrite(query) for query in queries]

    cold_s = best_of(run_cold, rounds=3)
    warm_s = best_of(run_warm, rounds=3)
    speedup = cold_s / warm_s if warm_s else float("inf")

    warm_results = run_warm()
    print(render_table(
        "Query rewriting — warm cache vs cold saturation",
        ["queries", "disjuncts", "steps", "cold s", "warm s", "speedup"],
        [(len(queries), sum(len(r.disjuncts) for r in cold_results),
          sum(r.steps for r in cold_results), cold_s, warm_s, speedup)]))

    assert all(result.cached for result in warm_results)
    assert [r.disjuncts for r in warm_results] \
        == [r.disjuncts for r in cold_results]
    assert speedup >= WARM_SPEEDUP_BAR, (
        f"warm rewrite cache only {speedup:.1f}x over cold saturation "
        f"(bar {WARM_SPEEDUP_BAR}x)")


def test_rewrite_counters_flow_through_tracer():
    schema = taxonomy_schema(2, 2)
    reasoner = Reasoner(schema)
    closure = reasoner.pipeline.closure_index()
    query = parse_query("q(x) :- T(x)", schema)

    tracer = Tracer()
    with use_tracer(tracer):
        rewriter = QueryRewriter(closure)
        rewriter.rewrite(query)
        rewriter.rewrite(query)
    counters = tracer.counters
    assert counters.get("qa.rewrite_cache_misses", 0) == 1
    assert counters.get("qa.rewrite_cache_hits", 0) == 1
    assert counters.get("qa.rewrite_steps", 0) > 0


def test_workload_certain_answers_end_to_end():
    schema = taxonomy_schema(2, 2)
    reasoner = Reasoner(schema)
    rewriter = QueryRewriter(reasoner.pipeline.closure_index())
    from repro.qa.data import database_from_document

    database = database_from_document(
        schema, sample_database(schema, 10, seed=5))
    answered = 0
    for _, source in query_workload(schema, per_shape=3, seed=5):
        query = parse_query(source, schema)
        answer = certain_answers(rewriter, query, database,
                                 reasoner=reasoner)
        if answer.boolean or answer.answers:
            answered += 1
    # The seeded database populates every relation, so at least one query
    # of the suite has a non-empty certain answer.
    assert answered > 0


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
