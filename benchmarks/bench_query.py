"""Experiment "query": the rewrite cache must beat cold saturation.

Acceptance bars for the conjunctive-query answering subsystem behind
:meth:`~repro.engine.session.SchemaSession.query` and ``POST /v1/query``:

* **Warm cache speedup** — replaying a mixed star/chain/boolean workload
  against a :class:`~repro.qa.rewriter.QueryRewriter` whose cache was
  populated by a first pass must beat re-saturating from scratch by
  >= ``WARM_SPEEDUP_BAR`` on every taxonomy.  The cold side pays the full
  specialize/eliminate/unify fixpoint plus subsumption pruning per
  query; the warm side is an LRU lookup on the canonical rendering.
  (The measured ratios are far larger; the CI bar is deliberately low so
  a loaded runner cannot flake it.)
* **Identical unions** — the warm replay must return the exact disjunct
  sets the cold pass produced, every result flagged ``cached``.  A cache
  that changes answers is a bug, not a feature.
* **Certain answers** — rewriting plus evaluation over a seeded database
  answers at least one query of the suite, and ``/v1/query`` by
  ``schema_ref`` misses once, then hits the result cache.
* **Accounting** — rewrite work must flow through the ambient tracer
  (``qa.rewrite_cache_hits`` / ``qa.rewrite_cache_misses`` /
  ``qa.rewrite_steps``) — the service's ``/metrics`` endpoint
  republishes these.
* **Data scaling** — certain answers of two chain queries over
  ``sample_database`` grow no faster than ``DATA_SCALING_FACTOR`` times
  the data from 1,600 to 25,600 objects: evaluation joins through hash
  indexes, so its work follows the rows the probes return.
"""

import pytest

from benchlib import (Table, best_of, is_superlinear, request_json,
                      run_table, timed)
from repro.obs.tracer import Tracer, use_tracer
from repro.parser.printer import render_schema
from repro.qa import QueryRewriter, certain_answers, parse_query
from repro.qa.data import database_from_document
from repro.reasoner.satisfiability import Reasoner
from repro.service import ReproService, ServiceConfig
from repro.workloads.query_workloads import (
    chain_queries,
    query_workload,
    sample_database,
    taxonomy_schema,
)

#: CI-safe floor; the measured ratios are far larger.
WARM_SPEEDUP_BAR = 5.0

#: Database sizes (objects) of the data-scaling table; the bar covers
#: the sizes from ``DATA_SCALING_FROM`` on, where fixed per-query costs
#: no longer dominate.
DATA_SCALING_SIZES = (100, 400, 1600, 6400, 25600)
DATA_SCALING_FROM = 1600
#: Allowed growth of a query's time over the data's growth (16x objects
#: may cost at most 48x the time); a nested-loop scan grows quadratically.
DATA_SCALING_FACTOR = 3.0


def rewriting_table() -> Table:
    """Cold saturation vs the warm rewrite cache (best of 3 each) over
    three taxonomies.

    Shapes stay below ~16 classes: the taxonomy is one G_S cluster, and
    the closure build's satisfiability probes (negated-filler classes)
    defeat the genuine-hierarchy detection, so enumeration is
    exponential in the cluster size.
    """
    rows = []
    for branching, depth in ((2, 2), (3, 2), (2, 3)):
        schema = taxonomy_schema(branching, depth)
        closure = Reasoner(schema).pipeline.closure_index()
        queries = [parse_query(source, schema)
                   for _, source in query_workload(schema, per_shape=4,
                                                   seed=3)]

        def run_cold(closure=closure, queries=queries):
            # A fresh rewriter per round: every query pays full saturation.
            rewriter = QueryRewriter(closure)
            return [rewriter.rewrite(query) for query in queries]

        warm_rewriter = QueryRewriter(closure)

        def run_warm(queries=queries):
            return [warm_rewriter.rewrite(query) for query in queries]

        first_pass = run_warm()  # saturates and fills the cache
        cold_s = best_of(run_cold, rounds=3)
        warm_s = best_of(run_warm, rounds=3)
        warm_results = run_warm()
        assert all(result.cached for result in warm_results)
        assert [r.disjuncts for r in warm_results] \
            == [r.disjuncts for r in first_pass]
        rows.append((f"{branching}^{depth}", len(schema.class_symbols),
                     len(queries),
                     sum(len(r.disjuncts) for r in first_pass),
                     sum(r.steps for r in first_pass), cold_s, warm_s,
                     cold_s / warm_s if warm_s else float("inf")))
    return Table(
        "Query rewriting — warm cache vs cold saturation "
        "(star/chain/boolean workload)",
        ["taxonomy", "classes", "queries", "disjuncts", "steps", "cold s",
         "warm s", "speedup"], rows)


def certain_answers_table() -> Table:
    """Rewriting plus plain evaluation over a seeded open-world database
    on ``taxonomy_schema(2, 2)``, totalled per query shape."""
    schema = taxonomy_schema(2, 2)
    reasoner = Reasoner(schema)
    rewriter = QueryRewriter(reasoner.pipeline.closure_index())
    database = database_from_document(
        schema, sample_database(schema, 10, seed=5))
    per_shape: dict = {}
    for shape, source in query_workload(schema, per_shape=3, seed=5):
        query = parse_query(source, schema)
        seconds, answer = timed(lambda q=query: certain_answers(
            rewriter, q, database, reasoner=reasoner))
        totals = per_shape.setdefault(shape, [0, 0, 0, 0.0])
        totals[0] += 1
        totals[1] += answer.disjuncts
        totals[2] += (int(bool(answer.boolean)) if answer.is_boolean
                      else len(answer.answers))
        totals[3] += seconds
    return Table(
        "Certain answers — rewriting + evaluation over a seeded database "
        "(10 objects)",
        ["shape", "queries", "disjuncts", "answers", "total s"],
        [(shape, *totals) for shape, totals in sorted(per_shape.items())])


def data_scaling_table() -> Table:
    """Certain answers of the first two
    ``chain_queries(taxonomy_schema(2, 2), 5, 2, seed=3)`` over
    ``sample_database(schema, n, seed=1)`` as ``n`` grows (warm rewrite
    cache, best of 3; the database is loaded outside the timing)."""
    schema = taxonomy_schema(2, 2)
    reasoner = Reasoner(schema)
    rewriter = QueryRewriter(reasoner.pipeline.closure_index())
    queries = [parse_query(source, schema)
               for source in chain_queries(schema, 5, 2, seed=3)[:2]]
    for query in queries:
        rewriter.rewrite(query)
    rows = []
    for n_objects in DATA_SCALING_SIZES:
        document = sample_database(schema, n_objects, seed=1)
        database = database_from_document(schema, document)
        for number, query in enumerate(queries, start=1):
            tracer = Tracer()
            with use_tracer(tracer):
                answer = certain_answers(rewriter, query, database,
                                         reasoner=reasoner)
            seconds = best_of(lambda q=query: certain_answers(
                rewriter, q, database, reasoner=reasoner), rounds=3)
            rows.append((n_objects, len(document["relations"]), number,
                         len(answer.answers),
                         tracer.counter("qa.rows_probed"),
                         seconds))
    return Table(
        "Certain answers vs data size — two chain queries on "
        "taxonomy_schema(2, 2)",
        ["objects", "tuples", "query", "answers", "rows probed",
         "seconds"], rows)


def wire_table() -> Table:
    """``PUT /v1/schemas`` once, then ``POST /v1/query`` by
    ``schema_ref``: a cold miss, then result-cache hits."""
    source = render_schema(taxonomy_schema(2, 2))
    body = {"schema_ref": "bench", "query": "q(x) :- T(x)"}
    rows = []
    with ReproService(ServiceConfig(port=0)) as service:
        base = f"http://{service.host}:{service.port}"
        status, _ = request_json(base, "/v1/schemas/bench",
                                 {"schema": source}, method="PUT")
        assert status == 201  # stored fresh
        for label, expected in (("cold miss", "miss"), ("warm hit", "hit"),
                                ("warm hit (repeat)", "hit")):
            seconds, (status, payload) = timed(
                lambda: request_json(base, "/v1/query", body))
            assert status == 200 and payload["ok"]
            data = payload["data"]
            assert data["cache"] == expected, label
            disjuncts = data["disjuncts"]
            rows.append((label, data["cache"],
                         len(disjuncts) if isinstance(disjuncts, list)
                         else disjuncts, seconds))
    return Table("Query answering — POST /v1/query by schema_ref "
                 "(result cache)",
                 ["request", "cache", "disjuncts", "seconds"], rows)


def test_warm_rewrite_cache_beats_cold_saturation(benchmark):
    for row in run_table(benchmark, rewriting_table):
        assert row[-1] >= WARM_SPEEDUP_BAR, (
            f"warm rewrite cache only {row[-1]:.1f}x over cold saturation "
            f"on taxonomy {row[0]} (bar {WARM_SPEEDUP_BAR}x)")


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


def test_workload_certain_answers_end_to_end(benchmark):
    # The seeded database populates every relation, so at least one query
    # of the suite has a non-empty certain answer.
    rows = run_table(benchmark, certain_answers_table)
    assert sum(row[3] for row in rows) > 0


def test_certain_answers_scale_with_the_data(benchmark):
    rows = run_table(benchmark, data_scaling_table)
    for number in {row[2] for row in rows}:
        series = [row for row in rows
                  if row[2] == number and row[0] >= DATA_SCALING_FROM]
        sizes = [row[0] for row in series]
        seconds = [row[-1] for row in series]
        assert not is_superlinear(sizes, seconds,
                                  factor=DATA_SCALING_FACTOR), (
            f"query {number}: {seconds} s over {sizes} objects grows "
            f"faster than {DATA_SCALING_FACTOR}x the data")


def test_query_by_schema_ref_hits_the_result_cache(benchmark):
    run_table(benchmark, wire_table)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
