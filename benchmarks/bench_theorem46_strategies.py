"""Experiment "Theorem 4.6 / Section 4.3": preselection strategies vs the
trivial method.

The naive method filters all ``2^|C|`` subsets; the strategic method builds
the disjointness/inclusion tables, decomposes ``G_S`` into clusters
(Theorem 4.6), and enumerates per cluster.  On clustered schemas the naive
cost explodes with the *total* class count while the strategic cost grows
linearly in the number of clusters — the speedup the section promises.
"""

import pytest

from benchlib import Table, is_superlinear, run_table, timed
from repro.engine.config import EngineConfig
from repro.expansion.enumerate import naive_compound_classes, strategic_compound_classes
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import clustered_schema

CLUSTER_SIZE = 3


def strategies_table() -> Table:
    """Naive vs strategic enumeration on 1–6 clusters of 3 classes."""
    rows = []
    for n_clusters in (1, 2, 3, 4, 5, 6):
        schema = clustered_schema(n_clusters, CLUSTER_SIZE, seed=11)
        naive_seconds, naive = timed(
            lambda s=schema: naive_compound_classes(s))
        strategic_seconds, strategic = timed(
            lambda s=schema: strategic_compound_classes(s))
        rows.append((n_clusters * CLUSTER_SIZE, len(naive), naive_seconds,
                     len(strategic), strategic_seconds))
    return Table(
        "Theorem 4.6 / §4.3 — naive vs strategic enumeration",
        ["classes", "naive compounds", "naive s", "strategic compounds",
         "strategic s"], rows)


@pytest.mark.experiment("theorem46")
def test_strategies_crossover(benchmark):
    rows = run_table(benchmark, strategies_table)
    naive_counts = [float(r[1]) for r in rows]
    strategic_counts = [float(r[3]) for r in rows]
    # Naive grows exponentially with total classes, strategic linearly with
    # clusters: naive must clearly outgrow strategic.
    assert is_superlinear(strategic_counts, naive_counts, factor=2.0)
    # The strategic count is exactly the per-cluster sum (plus the empty
    # compound), so it scales linearly in the cluster count.
    per_cluster = (strategic_counts[-1] - 1) / (len(rows))
    assert per_cluster <= 2 ** CLUSTER_SIZE


@pytest.mark.experiment("theorem46")
def test_verdicts_agree_between_strategies(benchmark):
    schema = clustered_schema(3, CLUSTER_SIZE, seed=11)

    def verdicts():
        naive = Reasoner(schema, config=EngineConfig(strategy="naive"))
        strategic = Reasoner(schema, config=EngineConfig(strategy="strategic"))
        return [(name, naive.is_satisfiable(name),
                 strategic.is_satisfiable(name))
                for name in sorted(schema.class_symbols)]

    for name, left, right in benchmark.pedantic(verdicts, rounds=1,
                                                iterations=1):
        assert left == right, name


@pytest.mark.experiment("theorem46")
def test_strategic_single_run(benchmark):
    schema = clustered_schema(5, CLUSTER_SIZE, seed=11)
    result = benchmark(lambda: strategic_compound_classes(schema))
    assert result
