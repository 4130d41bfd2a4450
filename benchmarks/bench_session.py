"""Experiment "session reuse": a warm ``SchemaSession`` must answer repeats
from its cached pipelines.

Three measurements of the session layer:

* **Warm vs cold** — repeated class-satisfiability queries against one
  schema.  Cold pays a full Reasoner construction (expansion + Ψ_S +
  support) per query; warm queries are membership tests against the
  session's cached pipeline, found by fingerprint.
* **Batched formulas** — ``check_many`` reuses the one support
  computation plus the incremental augmented-query seeding.
* **Fingerprint LRU** — six distinct schemas through a limit-4 cache,
  then two repeats of the most recent.

Warm and cold verdicts must be identical.
"""

import pytest

from benchlib import Table, run_table, timed
from repro.core.formulas import Clause, Formula, Lit
from repro.engine import EngineConfig, SchemaSession
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import clustered_schema, random_schema

STRATEGIC = EngineConfig(strategy="strategic")


def warm_vs_cold_table() -> Table:
    """24 class queries per clustered schema: a cold reasoner each vs one
    warm session."""
    rows = []
    for n_clusters, cluster_size in ((4, 3), (6, 4), (8, 4)):
        schema = clustered_schema(n_clusters, cluster_size, seed=9)
        names = sorted(schema.class_symbols)
        queries = [names[i % len(names)] for i in range(24)]
        with SchemaSession() as session:
            cold_s, cold = timed(lambda: [
                Reasoner(schema).is_satisfiable(q) for q in queries])
            session.satisfiable(schema, queries[0])  # the one cold build
            warm_s, warm = timed(lambda: [
                session.satisfiable(schema, q) for q in queries])
        assert warm == cold, "warm verdicts differ from cold reasoners"
        rows.append((n_clusters * cluster_size, len(queries), cold_s, warm_s,
                     cold_s / warm_s if warm_s else 0.0, warm == cold))
    return Table(
        "Session reuse — warm cached pipeline vs cold per-query reasoners",
        ["classes", "queries", "cold s", "warm s", "speedup",
         "identical verdicts"], rows)


def check_many_table() -> Table:
    """Six cross-cluster formulas per clustered schema: ``check_many`` on
    a warm session vs a cold reasoner per formula."""
    rows = []
    for n_clusters, cluster_size in ((6, 4), (8, 5)):
        schema = clustered_schema(n_clusters, cluster_size, seed=5)
        names = sorted(schema.class_symbols)
        formulas = [
            Formula((Clause((Lit(names[i]),)), Clause((Lit(names[-1 - i]),))))
            for i in range(6)
        ]
        with SchemaSession(STRATEGIC) as session:
            session.reasoner(schema).support  # warm the pipeline
            warm_s, warm = timed(lambda: session.check_many(schema, formulas))
        cold_s, cold = timed(lambda: [
            Reasoner(schema, config=STRATEGIC).is_formula_satisfiable(f)
            for f in formulas])
        assert warm == cold, "check_many verdicts differ from cold reasoners"
        rows.append((n_clusters * cluster_size, len(formulas), cold_s,
                     warm_s, cold_s / warm_s if warm_s else 0.0,
                     warm == cold))
    return Table(
        "Session reuse — batched formula queries (check_many) vs cold",
        ["classes", "formulas", "cold s", "warm s", "speedup",
         "identical verdicts"], rows)


def lru_table() -> Table:
    """The fingerprint LRU under an evolving fleet of schemas."""
    with SchemaSession(EngineConfig(session_cache_limit=4)) as session:
        schemas = [random_schema(5, seed=seed) for seed in range(6)]
        for schema in schemas + schemas[-2:]:
            session.check_coherence(schema)
        info = session.cache_info()
    return Table(
        "Session reuse — fingerprint LRU across an evolving schema fleet",
        ["schemas seen", "cache limit", "hits", "misses", "evictions",
         "resident"],
        [(len(schemas) + 2, info.limit, info.hits, info.misses,
          info.evictions, info.size)])


@pytest.mark.experiment("session")
def test_warm_session_beats_cold_reasoners(benchmark):
    for row in run_table(benchmark, warm_vs_cold_table):
        assert row[4] > 1.0, f"warm session no faster on {row[0]} classes"


@pytest.mark.experiment("session")
def test_check_many_matches_cold_reasoners(benchmark):
    run_table(benchmark, check_many_table)


@pytest.mark.experiment("session")
def test_lru_evicts_the_oldest_schemas(benchmark):
    [(_, limit, hits, misses, evictions, resident)] = run_table(
        benchmark, lru_table)
    assert (hits, misses) == (2, 6)
    assert (evictions, resident) == (misses - limit, limit)
