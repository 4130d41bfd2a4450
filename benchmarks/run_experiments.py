#!/usr/bin/env python3
"""Regenerate every experiment series recorded in EXPERIMENTS.md.

Runs the same workloads as the pytest benchmarks, but as a plain script so
the tables land on stdout, ready to be pasted into EXPERIMENTS.md:

    python benchmarks/run_experiments.py

One section per experiment of the DESIGN.md index (Figures 1–2,
Theorems 4.1–4.6, Section 4.4), plus the expansion-pipeline section
covering the indexed Ψ_S construction and binding-endpoint pruning.

``--only KEYWORD`` restricts the run to sections whose title contains the
keyword (case-insensitive); ``--json PATH`` additionally records every
table into a machine-readable document (see ``benchlib.Recorder``), the
format committed as ``BENCH_expansion.json``:

    python benchmarks/run_experiments.py --only expansion \\
        --json BENCH_expansion.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
# The repository root, for the dense reference simplex of tests/.
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

from benchlib import Recorder, best_of, render_table, timed

RECORDER: Optional[Recorder] = None


def emit(title, headers, rows) -> None:
    """Print one table and, when ``--json`` is active, record it."""
    print(render_table(title, headers, rows))
    if RECORDER is not None:
        RECORDER.record(title, headers, rows)

from repro import AttrRef, Reasoner, inv, parse_schema
from repro.engine import EngineConfig, SchemaSession
from repro.expansion.enumerate import naive_compound_classes, strategic_compound_classes
from repro.expansion.expansion import build_expansion
from repro.linear.support import acceptable_support
from repro.linear.system import build_system
from repro.reasoner.implication import implied_attribute_bounds, implied_disjoint
from repro.reasoner.transform import reify_nonbinary_relations
from repro.reductions import (
    IntersectionPattern,
    cnf_to_schema,
    dpll_satisfiable,
    machine_to_schema,
    parity_machine,
    pattern_to_schema,
    random_cnf,
)
from repro.workloads import FIGURE_1_SOURCE, FIGURE_2_SOURCE
from repro.workloads.generators import adversarial_schema, clustered_schema, hierarchy_schema


def figures() -> None:
    session = SchemaSession()
    rows = []
    for label, source in (("Figure 1", FIGURE_1_SOURCE),
                          ("Figure 2", FIGURE_2_SOURCE)):
        schema = parse_schema(source)
        reasoner = session.reasoner(schema)
        seconds, report = timed(reasoner.check_coherence)
        stats = reasoner.stats()
        rows.append((label, stats.classes, stats.compound_classes,
                     stats.psi_unknowns, stats.psi_constraints,
                     report.is_coherent, seconds))
    emit(
        "Figures 1 & 2 — end-to-end reasoning over the paper's schemas",
        ["schema", "classes", "compounds", "unknowns", "disequations",
         "coherent", "seconds"], rows)

    # Re-parsing Figure 2 hits the session's fingerprint cache: the warm
    # pipeline (expansion + support) is reused for the implied facts.
    reasoner = session.reasoner(parse_schema(FIGURE_2_SOURCE))
    facts = [
        ("Student ⟂ Professor", implied_disjoint(reasoner, "Student", "Professor")),
        ("Grad_Student ⟂ Professor", implied_disjoint(reasoner, "Grad_Student", "Professor")),
        ("taught_by per Course", implied_attribute_bounds(reasoner, "Course", AttrRef("taught_by"))),
        ("courses per Professor", implied_attribute_bounds(reasoner, "Professor", inv("taught_by"))),
        ("courses per Grad_Student", implied_attribute_bounds(reasoner, "Grad_Student", inv("taught_by"))),
    ]
    print()
    emit("Figure 2 — implied facts",
                       ["fact", "derived value"], facts)


def theorem41() -> None:
    machine = parity_machine()
    rows = []
    for space in (1, 2, 3):
        word = "1" * (space - 1)
        time_bound = space + 1
        reduction = machine_to_schema(machine, word, time_bound, space)
        reasoner = Reasoner(reduction.schema)
        seconds, verdict = timed(
            lambda r=reasoner, t=reduction.target: r.is_satisfiable(t))
        rows.append((space, len(reduction.schema.class_symbols),
                     len(reasoner.expansion.compound_classes),
                     verdict, machine.accepts(word, time_bound, space),
                     seconds))
    emit(
        "Theorem 4.1 — TM reduction (parity machine), growing tape",
        ["space S", "classes", "compounds", "schema verdict",
         "machine verdict", "seconds"], rows)


def theorem42() -> None:
    rows = []
    for n_vars in (4, 6, 8, 10):
        formula = random_cnf(n_vars, n_clauses=n_vars * 2, seed=7)
        schema = cnf_to_schema(formula)
        reasoner = Reasoner(schema)
        seconds, verdict = timed(lambda r=reasoner: r.is_satisfiable("World"))
        rows.append((n_vars, len(schema.class_symbols),
                     len(reasoner.expansion.compound_classes),
                     verdict, dpll_satisfiable(formula) is not None, seconds))
    emit(
        "Theorem 4.2a — 3SAT→CAR, ratio-2 random formulas",
        ["vars", "classes", "compounds", "schema verdict", "DPLL verdict",
         "seconds"], rows)

    rows = []
    for n in (2, 3):
        matrix = [[2 if i == j else 1 for j in range(n)] for i in range(n)]
        pattern = IntersectionPattern.of(matrix)
        schema = pattern_to_schema(pattern)
        reasoner = Reasoner(schema)
        seconds, verdict = timed(lambda r=reasoner: r.is_satisfiable("W"))
        rows.append((n, len(schema.class_symbols),
                     len(reasoner.expansion.compound_classes), verdict,
                     seconds))
    infeasible = IntersectionPattern.of([[2, 3], [3, 3]])
    reasoner = Reasoner(pattern_to_schema(infeasible))
    seconds, verdict = timed(lambda: reasoner.is_satisfiable("W"))
    rows.append(("2 (infeasible)", len(reasoner.schema.class_symbols),
                 len(reasoner.expansion.compound_classes), verdict, seconds))
    print()
    emit(
        "Theorem 4.2b — Intersection Pattern (union- & negation-free)",
        ["n", "classes", "compounds", "W satisfiable", "seconds"], rows)


def theorem43() -> None:
    from repro.core.cardinality import Card
    from repro.core.formulas import Lit
    from repro.core.schema import Attr, ClassDef, Schema

    def cluster(i: int, fan: int):
        a, b = f"A{i}", f"B{i}"
        return [
            ClassDef(a, isa=~Lit(b),
                     attributes=[Attr(f"link{i}", Card(fan, fan), b)]),
            ClassDef(b, attributes=[Attr(inv(f"link{i}"), Card(1, 1), a)]),
        ]

    rows = []
    for n_clusters in (2, 4, 8, 16, 32):
        classes = []
        for i in range(n_clusters):
            classes.extend(cluster(i, fan=2 + (i % 3)))
        system = build_system(build_expansion(Schema(classes)))
        seconds, _ = timed(lambda s=system: acceptable_support(s))
        rows.append((n_clusters, system.size(), system.n_unknowns(),
                     system.n_constraints(), seconds))
    emit(
        "Theorem 4.3 — acceptable-solution check vs |Psi_S|",
        ["clusters", "|Psi_S|", "unknowns", "disequations", "seconds"], rows)


def theorem44() -> None:
    rows = []
    for n_classes in (6, 8, 10, 12, 14):
        schema = adversarial_schema(n_classes, seed=4)
        reasoner = Reasoner(schema)
        seconds, _ = timed(lambda r=reasoner: r.satisfiable_classes())
        stats = reasoner.stats()
        rows.append((n_classes, stats.compound_classes,
                     stats.expansion_size, seconds))
    emit(
        "Theorem 4.4 — adversarial single-cluster schemas",
        ["classes", "compounds", "expansion", "seconds"], rows)


def theorem45() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_theorem45_arity import kary_schema

    rows = []
    for arity in (2, 3, 4, 5):
        schema = kary_schema(arity)
        before = build_expansion(schema)
        before_rel = sum(len(v) for v in before.compound_relations.values())
        result = reify_nonbinary_relations(schema)
        after = build_expansion(result.schema)
        after_rel = sum(len(v) for v in after.compound_relations.values())
        rows.append((arity, before_rel, before.size(), after_rel,
                     after.size()))
    emit(
        "Theorem 4.5 — K-ary expansion, original vs reified",
        ["arity K", "K-ary comp. rels", "expansion", "binary comp. rels",
         "reified expansion"], rows)


def theorem46() -> None:
    rows = []
    for n_clusters in (1, 2, 3, 4, 5, 6):
        schema = clustered_schema(n_clusters, 3, seed=11)
        naive_seconds, naive = timed(
            lambda s=schema: naive_compound_classes(s))
        strategic_seconds, strategic = timed(
            lambda s=schema: strategic_compound_classes(s))
        rows.append((n_clusters * 3, len(naive), naive_seconds,
                     len(strategic), strategic_seconds))
    emit(
        "Theorem 4.6 / §4.3 — naive vs strategic enumeration",
        ["classes", "naive compounds", "naive s", "strategic compounds",
         "strategic s"], rows)


def section44() -> None:
    from repro.expansion.enumerate import compound_classes

    rows = []
    for depth, branching in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 3)):
        schema = hierarchy_schema(depth, branching)
        n_classes = len(schema.class_symbols)
        seconds, compounds = timed(
            lambda s=schema: compound_classes(s, "auto"))
        rows.append((f"{depth}/{branching}", n_classes, len(compounds),
                     seconds))
    emit(
        "Section 4.4 — generalization hierarchies (depth/branching)",
        ["shape", "classes", "compounds", "seconds"], rows)


def synthesis() -> None:
    from repro.reasoner.satisfiability import Reasoner
    from repro.semantics.checker import is_model
    from repro.synthesis.builder import synthesize_model
    from repro.workloads.generators import cardinality_chain_schema

    schema = cardinality_chain_schema(2, fan_out=2)
    reasoner = Reasoner(schema)
    rows = []
    for scale in (1, 2, 4, 8):
        seconds, report = timed(
            lambda s=scale: synthesize_model(reasoner, target="L0", scale=s))
        assert is_model(report.interpretation, schema)
        rows.append((scale, report.n_objects, seconds))
    emit(
        "Theorem 3.3 (constructive) — synthesis vs witness scale",
        ["scale", "objects", "seconds"], rows)
    rows = []
    for length in (1, 2, 3, 4):
        chain = cardinality_chain_schema(length, fan_out=2)
        seconds, report = timed(
            lambda c=chain: synthesize_model(Reasoner(c), target="L0"))
        rows.append((length, report.n_objects, seconds))
    print()
    emit(
        "Theorem 3.3 (constructive) — synthesis vs chain depth",
        ["chain length", "objects", "seconds"], rows)


def ablations() -> None:
    from repro.linear.support import acceptable_support
    from repro.workloads.paper_schemas import figure1_schema

    expansion = build_expansion(parse_schema(FIGURE_2_SOURCE))
    acceptable_support(expansion)  # warm the solver path
    rows = []
    for label, kwargs in (
            ("baseline", {}),
            ("no propagation", {"use_propagation": False}),
            ("no column merging", {"merge_columns": False})):
        seconds = min(timed(lambda k=kwargs: acceptable_support(
            expansion, **k))[0] for _ in range(3))
        rows.append((label, seconds))
    emit(
        "Ablations — support computation on Figure 2",
        ["variant", "seconds"], rows)
    rows = []
    for label, schema in (("Figure 1", figure1_schema()),
                          ("Figure 2", parse_schema(FIGURE_2_SOURCE))):
        filtered = build_expansion(schema).size()
        verbatim = build_expansion(schema, include_unconstrained=True).size()
        rows.append((label, filtered, verbatim))
    print()
    emit(
        "Ablations — binding-entry filtering (expansion size)",
        ["schema", "filtered", "Definition 3.1 verbatim"], rows)


def expansion_pipeline() -> None:
    from dataclasses import replace

    from repro.core.formulas import Clause, Formula, Lit
    from repro.workloads.generators import random_schema, wide_attribute_schema

    # Indexed endpoint lookups vs linear scans during Ψ_S construction.
    # wide_attribute_schema concentrates quadratically many compound
    # attributes on linearly many compound classes, the scans' worst case.
    rows = []
    for n in (60, 120, 200, 260):
        expansion = build_expansion(wide_attribute_schema(n))
        scanning = replace(expansion, indexed=False)
        expansion.attributes_with_left("link", frozenset(("C0",)))  # warm index
        indexed_s = best_of(lambda e=expansion: build_system(e), rounds=5)
        scan_s = best_of(lambda e=scanning: build_system(e), rounds=2)
        rows.append((n, len(expansion.compound_classes), expansion.size(),
                     indexed_s, scan_s,
                     scan_s / indexed_s if indexed_s else 0.0))
    emit("Ψ_S construction — endpoint indexes vs linear scans",
         ["chain n", "compounds", "expansion", "indexed s", "scan s",
          "speedup"], rows)

    # Binding-endpoint pruning vs the Definition 3.1 verbatim enumeration.
    rows = []
    for n in (40, 80, 120):
        schema = wide_attribute_schema(n, binding=False)
        pruned_s, pruned = timed(lambda s=schema: build_expansion(s))
        verbatim_s, verbatim = timed(
            lambda s=schema: build_expansion(s, include_unconstrained=True))
        rows.append((n, pruned.size(), pruned_s, verbatim.size(), verbatim_s))
    print()
    emit("Enumeration — binding-endpoint pruning vs Definition 3.1 verbatim",
         ["chain n", "pruned size", "pruned s", "verbatim size",
          "verbatim s"], rows)

    # Augmented queries are one-class deltas (Pipeline.recompile_from):
    # they keep every table row and the compound classes of untouched
    # clusters, so the measured quantity is the augmented *pipeline build*
    # (tables + enumeration).  Verdicts are checked against full rebuilds
    # end to end, and a silent fallback to cold builds fails the run.
    from repro.core.schema import ClassDef

    rows = []
    for n_clusters, cluster_size in ((6, 4), (10, 4), (8, 5)):
        schema = clustered_schema(n_clusters, cluster_size, seed=5)
        names = sorted(schema.class_symbols)
        base = Reasoner(schema, config=EngineConfig(strategy="strategic"))
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

        seeded_s, seeded = timed(lambda: [delta_build(cdef)
                                          for cdef in cdefs])
        cold_s, _ = timed(lambda: [
            Reasoner(schema.with_class(cdef), config=EngineConfig(strategy="strategic")).expansion
            for cdef in cdefs])
        assert all(augmented.pipeline.delta_stats["mode"] == "delta"
                   for augmented in seeded), "augmented query built cold"
        identical = all(
            augmented.is_satisfiable(cdef.name)
            == Reasoner(schema.with_class(cdef),
                        config=EngineConfig(strategy="strategic")
                        ).is_satisfiable(cdef.name)
            for augmented, cdef in zip(seeded, cdefs))
        assert identical, "augmented verdicts differ from cold rebuilds"
        rows.append((n_clusters * cluster_size, len(cdefs), seeded_s,
                     cold_s, identical))
    print()
    emit("Augmented queries — delta seeding vs cold rebuilds "
         "(pipeline build)",
         ["classes", "queries", "seeded s", "cold s",
          "identical verdicts"], rows)

    # Verdict equivalence: naive vs strategic vs indexed-off pipelines.
    rows = []
    for seed in range(6):
        schema = random_schema(6, seed=seed)
        verdict_sets = []
        for strategy in ("naive", "strategic"):
            reasoner = Reasoner(schema, config=EngineConfig(strategy=strategy))
            verdict_sets.append(frozenset(reasoner.satisfiable_classes()))
        scanning = replace(build_expansion(schema), indexed=False)
        populated = set(
            acceptable_support(scanning).supported_compound_classes())
        verdict_sets.append(frozenset(
            name for name in schema.class_symbols
            if any(name in members for members in populated)))
        rows.append((seed, len(verdict_sets[0]),
                     len(set(verdict_sets)) == 1))
    print()
    emit("Verdict equivalence — naive vs strategic vs unindexed",
         ["seed", "satisfiable classes", "identical"], rows)


def session_reuse() -> None:
    from repro.core.formulas import Clause, Formula, Lit
    from repro.workloads.generators import random_schema

    # Warm vs cold: repeated class-satisfiability queries against one
    # schema.  Cold pays a full Reasoner construction (expansion + Ψ_S +
    # support) per query; warm queries are membership tests against the
    # session's cached pipeline, found by fingerprint.
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
        rows.append((n_clusters * cluster_size, len(queries), cold_s, warm_s,
                     cold_s / warm_s if warm_s else 0.0, warm == cold))
    emit("Session reuse — warm cached pipeline vs cold per-query reasoners",
         ["classes", "queries", "cold s", "warm s", "speedup",
          "identical verdicts"], rows)

    # Batched cross-cluster formula queries: check_many reuses the one
    # support computation plus the incremental augmented-query seeding.
    rows = []
    for n_clusters, cluster_size in ((6, 4), (8, 5)):
        schema = clustered_schema(n_clusters, cluster_size, seed=5)
        names = sorted(schema.class_symbols)
        formulas = [
            Formula((Clause((Lit(names[i]),)),
                     Clause((Lit(names[-1 - i]),))))
            for i in range(6)
        ]
        with SchemaSession(EngineConfig(strategy="strategic")) as session:
            session.reasoner(schema).support  # warm the pipeline
            warm_s, warm = timed(lambda: session.check_many(schema, formulas))
        cold_s, cold = timed(lambda: [
            Reasoner(schema, config=EngineConfig(strategy="strategic")).is_formula_satisfiable(f)
            for f in formulas])
        rows.append((n_clusters * cluster_size, len(formulas), cold_s,
                     warm_s, cold_s / warm_s if warm_s else 0.0,
                     warm == cold))
    print()
    emit("Session reuse — batched formula queries (check_many) vs cold",
         ["classes", "formulas", "cold s", "warm s", "speedup",
          "identical verdicts"], rows)

    # The fingerprint LRU under an evolving fleet of schemas: six distinct
    # schemas through a limit-4 cache, then two repeats of the most recent.
    with SchemaSession(EngineConfig(session_cache_limit=4)) as session:
        schemas = [random_schema(5, seed=seed) for seed in range(6)]
        for schema in schemas + schemas[-2:]:
            session.check_coherence(schema)
        info = session.cache_info()
    print()
    emit("Session reuse — fingerprint LRU across an evolving schema fleet",
         ["schemas seen", "cache limit", "hits", "misses", "evictions",
          "resident"],
         [(len(schemas) + 2, info.limit, info.hits, info.misses,
           info.evictions, info.size)])


def parallel_batch() -> None:
    import os

    from repro.parser.printer import render_schema
    from repro.workloads.generators import adversarial_schema

    # Serial check_many vs the batch executor at growing worker counts.
    # Eight independent adversarial schemas, one shard each: embarrassingly
    # parallel work, so the table exposes exactly what process fan-out and
    # per-worker pipeline warming cost and buy on this host.
    queries = []
    for index in range(8):
        schema = adversarial_schema(16, seed=index)
        queries.append({"schema": render_schema(schema),
                        "formula": sorted(schema.class_symbols)[0]})
    # One untimed warm-up run: the first pipeline execution in a fresh
    # interpreter pays one-time specialization costs that forked workers
    # inherit for free, which would otherwise inflate the speedup.
    with SchemaSession() as warmup:
        warmup.run_batch(queries[:1], jobs=1, mode="serial")
    cores = os.cpu_count() or 1
    # On a single-core host a process pool can only lose (pure overhead,
    # no parallelism), so recording its sub-1x rows would read as an
    # executor regression; record the serial baseline and say why.
    job_points = (1, 2, 4) if cores >= 2 else (1,)
    rows = []
    serial_s = None
    for jobs in job_points:
        with SchemaSession() as session:
            mode = "serial" if jobs == 1 else "process"
            seconds, outcomes = timed(
                lambda s=session, m=mode, j=jobs: s.run_batch(
                    queries, jobs=j, mode=m))
        if serial_s is None:
            serial_s = seconds
        rows.append((jobs, mode, seconds, serial_s / seconds,
                     sum(o.ok for o in outcomes)))
    emit(f"Parallel batch — 8 adversarial schemas, serial vs process pool "
         f"({cores} cores)",
         ["jobs", "mode", "seconds", "speedup", "ok"], rows)
    if cores < 2:
        print(f"  (process-pool rows skipped: {cores}-core host, "
              f"no parallelism to measure)")

    # Cold-start cost: rehydrating a precompiled CompiledSchema snapshot
    # vs running the full Phase-1/Phase-2 build from source — the saving
    # every artifact-cache hit (pool worker, CLI rerun, service boot)
    # banks.  Build times are best-of-3 on a warm interpreter; loads are
    # best-of-5 (they are tiny and GC-sensitive).
    import pickle as pickle_module

    from repro.engine import EngineConfig as _EngineConfig
    from repro.engine import Pipeline as _Pipeline
    from repro.engine.artifact import _loads_without_gc

    cold_rows = []
    for seed in range(3):
        schema = adversarial_schema(16, seed=seed)
        config = _EngineConfig()

        def build(schema=schema, config=config):
            pipeline = _Pipeline(schema, config)
            pipeline.system
            return pipeline

        build_s = best_of(build, rounds=3)
        payload = pickle_module.dumps(build().compile(),
                                      protocol=pickle_module.HIGHEST_PROTOCOL)
        load_s = best_of(lambda: _loads_without_gc(payload), rounds=5)
        cold_rows.append((f"adversarial(16, seed={seed})", build_s, load_s,
                          build_s / load_s, len(payload)))
    print()
    emit("Cold start — full Phase-1/2 build vs artifact rehydration",
         ["schema", "build s", "load s", "speedup", "artifact bytes"],
         cold_rows)

    # Deadline responsiveness: a 50 ms budget against the Theorem 4.1
    # EXPTIME reduction must yield a timed-out outcome well under a
    # second, while its batch-mate still gets answered.
    reduction = machine_to_schema(parity_machine(), (0, 1, 0, 1), 6, 6)
    deadline_queries = [
        {"schema": render_schema(reduction.schema),
         "formula": str(reduction.target)},
        {"schema": "class A isa not B endclass class B endclass",
         "formula": "A"},
    ]
    with SchemaSession() as session:
        wall_s, outcomes = timed(
            lambda: session.run_batch(deadline_queries, deadline=0.05))
    hard, easy = outcomes
    print()
    emit("Parallel batch — 50 ms deadline vs EXPTIME reduction",
         ["query", "timed out", "steps", "duration s", "batch wall s"],
         [("EXPTIME reduction", hard.timed_out, hard.steps, hard.duration,
           wall_s),
          ("trivial batch-mate", easy.timed_out, easy.steps, easy.duration,
           wall_s)])


def query_answering() -> None:
    import json as json_module
    import urllib.error
    import urllib.request

    from repro.qa import QueryRewriter, certain_answers, parse_query
    from repro.qa.data import database_from_document
    from repro.reasoner.satisfiability import Reasoner as _Reasoner
    from repro.workloads.query_workloads import (
        query_workload,
        sample_database,
        taxonomy_schema,
    )

    # Warm rewrite cache vs cold saturation over growing taxonomies: the
    # cold side pays the specialize/eliminate/unify fixpoint plus the
    # subsumption pruning per query, the warm side an LRU lookup on the
    # canonical rendering.  The committed acceptance bar lives in
    # bench_query.py (WARM_SPEEDUP_BAR = 5x); these rows record the
    # actual ratios.
    # Shapes stay below ~16 classes: the taxonomy is one G_S cluster, and
    # the closure build's satisfiability probes (negated-filler classes)
    # defeat the genuine-hierarchy detection, so enumeration is
    # exponential in the cluster size.
    rows = []
    for branching, depth in ((2, 2), (3, 2), (2, 3)):
        schema = taxonomy_schema(branching, depth)
        closure = _Reasoner(schema).pipeline.closure_index()
        queries = [parse_query(source, schema)
                   for _, source in query_workload(schema, per_shape=4,
                                                   seed=3)]

        def run_cold(closure=closure, queries=queries):
            rewriter = QueryRewriter(closure)
            return [rewriter.rewrite(query) for query in queries]

        warm_rewriter = QueryRewriter(closure)
        results = [warm_rewriter.rewrite(query) for query in queries]
        cold_s = best_of(run_cold, rounds=3)
        warm_s = best_of(lambda r=warm_rewriter, q=queries: [
            r.rewrite(query) for query in q], rounds=3)
        rows.append((f"{branching}^{depth}",
                     len(schema.class_symbols), len(queries),
                     sum(len(r.disjuncts) for r in results),
                     sum(r.steps for r in results), cold_s, warm_s,
                     cold_s / warm_s if warm_s else 0.0))
    emit("Query rewriting — warm cache vs cold saturation "
         "(star/chain/boolean workload)",
         ["taxonomy", "classes", "queries", "disjuncts", "steps",
          "cold s", "warm s", "speedup"], rows)

    # Certain answers end to end: rewriting + plain evaluation over a
    # seeded open-world database, per query shape.
    schema = taxonomy_schema(2, 3)
    reasoner = _Reasoner(schema)
    rewriter = QueryRewriter(reasoner.pipeline.closure_index())
    database = database_from_document(
        schema, sample_database(schema, 24, seed=5))
    shape_rows: dict = {}
    for shape, source in query_workload(schema, per_shape=5, seed=5):
        query = parse_query(source, schema)
        seconds, answer = timed(lambda q=query: certain_answers(
            rewriter, q, database, reasoner=reasoner))
        stats = shape_rows.setdefault(shape, [0, 0, 0, 0.0])
        stats[0] += 1
        stats[1] += answer.disjuncts
        stats[2] += (int(bool(answer.boolean)) if answer.is_boolean
                     else len(answer.answers))
        stats[3] += seconds
    print()
    emit("Certain answers — rewriting + evaluation over a seeded database "
         "(24 objects)",
         ["shape", "queries", "disjuncts", "answers", "total s"],
         [(shape, *stats) for shape, stats in sorted(shape_rows.items())])

    # The wire path: PUT /v1/schemas once, then POST /v1/query by
    # schema_ref — cold miss, then result-cache hits.
    from repro.parser.printer import render_schema
    from repro.service import ReproService, ServiceConfig

    def call(base, path, body, method="POST"):
        request = urllib.request.Request(
            base + path, data=json_module.dumps(body).encode(),
            method=method)
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json_module.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json_module.loads(error.read())

    source = render_schema(taxonomy_schema(2, 2))
    rows = []
    with ReproService(ServiceConfig(port=0)) as service:
        base = f"http://{service.host}:{service.port}"
        status, _ = call(base, "/v1/schemas/bench", {"schema": source},
                         method="PUT")
        assert status == 201  # stored fresh
        body = {"schema_ref": "bench", "query": "q(x) :- T(x)"}
        for label in ("cold miss", "warm hit", "warm hit (repeat)"):
            seconds, (status, payload) = timed(
                lambda: call(base, "/v1/query", body))
            assert status == 200 and payload["ok"]
            rows.append((label, payload["data"]["cache"],
                         len(payload["data"]["disjuncts"])
                         if isinstance(payload["data"]["disjuncts"], list)
                         else payload["data"]["disjuncts"], seconds))
    print()
    emit("Query answering — POST /v1/query by schema_ref (result cache)",
         ["request", "cache", "disjuncts", "seconds"], rows)


def registry_revalidation() -> None:
    from repro.core.formulas import Clause, Formula, Lit
    from repro.core.schema import ClassDef, Schema
    from repro.engine import Pipeline, SchemaDelta
    from repro.parser.printer import render_schema
    from repro.reasoner.satisfiability import Reasoner as _Reasoner
    from repro.registry import SchemaRegistry

    from tests.dense_reference import DenseReference

    # Pin the LP core so the cold and delta sides solve with the same
    # arithmetic: "auto" flips between exact and float by system size,
    # which would compare backends, not pipelines.  BENCH_registry.json
    # was measured on the dense reference.
    config = EngineConfig(lp_backend=DenseReference())

    def single_cluster_edit(schema):
        names = sorted(d.name for d in schema.class_definitions
                       if d.name.startswith("K0_"))
        target = names[-1]
        extra = Clause((Lit("K0_1"),))
        definitions = []
        for definition in schema.class_definitions:
            if definition.name != target:
                definitions.append(definition)
                continue
            clauses = definition.isa.clauses if definition.isa else ()
            definitions.append(ClassDef(
                target, Formula(clauses + (extra,)),
                definition.attributes, definition.participates))
        return Schema(definitions)

    def verdicts(pipeline):
        reasoner = _Reasoner.from_pipeline(pipeline)
        return {name: reasoner.is_satisfiable(name)
                for name in sorted(pipeline.schema.class_symbols)}

    # Single-cluster edits against wide multi-cluster schemas: the delta
    # path re-enumerates only the dirty cluster and solves only its Ψ_S
    # blocks; the cold side repeats the full Phase-1/Phase-2 build.
    rows = []
    for n_clusters, cluster_size, seed in ((8, 4, 7), (10, 5, 3),
                                           (12, 6, 1)):
        old = clustered_schema(n_clusters, cluster_size, seed=seed)
        pipeline = Pipeline(old, config)
        _ = pipeline.support  # warm build, the registry's previous version
        new = single_cluster_edit(old)
        delta = SchemaDelta.between(old, new)

        def run_delta():
            revalidated = Pipeline.recompile_from(pipeline, delta, config)
            _ = revalidated.support
            return revalidated

        def run_cold():
            cold = Pipeline(new, config)
            _ = cold.support
            return cold

        delta_s = best_of(run_delta, rounds=3)
        cold_s = best_of(run_cold, rounds=3)
        delta_pipeline = run_delta()
        assert verdicts(delta_pipeline) == verdicts(run_cold())
        stats = delta_pipeline.delta_stats
        blocks_total = (stats["support_blocks_reused"]
                        + stats["support_blocks_solved"])
        rows.append((f"{stats['clusters_total']}x{cluster_size}",
                     cold_s, delta_s,
                     cold_s / delta_s if delta_s else 0.0,
                     f"{stats['clusters_reused']}/{stats['clusters_total']}",
                     f"{stats['support_blocks_reused']}/{blocks_total}"))
    emit("Registry revalidation — single-cluster edit vs cold rebuild "
         "(dense reference LP core, identical verdicts)",
         ["clusters", "cold s", "delta s", "speedup", "clusters reused",
          "blocks reused/total"], rows)

    # End-to-end through the registry: put v1 (cold validation), put an
    # edited v2 (delta revalidation), put v2 again (fingerprint dedupe).
    old = clustered_schema(8, 4, seed=7)
    new = single_cluster_edit(old)
    rows = []
    with SchemaSession(config) as session:
        registry = SchemaRegistry(session)
        for label, source in (("put v1 (fresh)", render_schema(old)),
                              ("put v2 (delta)", render_schema(new)),
                              ("put v2 again (unchanged)",
                               render_schema(new))):
            seconds, (version, report) = timed(
                lambda source=source: registry.put("wide", source))
            rows.append((label, version.version, report.mode,
                         f"{report.clusters_reused}"
                         f"/{report.clusters_total}",
                         seconds))
    print()
    emit("Registry revalidation — SchemaRegistry.put end to end",
         ["operation", "version", "mode", "clusters reused", "seconds"],
         rows)


def query_service() -> None:
    import json as json_module
    import threading
    import urllib.error
    import urllib.request

    import loadgen
    from repro.parser.printer import render_schema
    from repro.service import ReproService, ServiceConfig

    def post(base, body, headers=None):
        request = urllib.request.Request(
            base + "/v1/satisfiable",
            data=json_module.dumps(body).encode(),
            headers=headers or {}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json_module.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json_module.loads(error.read())

    # Warm-cache throughput: after the one cold miss, every repeat of the
    # same (schema fingerprint, formula) pair is answered straight from
    # the result cache on the event-loop fast path — wire overhead is the
    # whole cost.  Driven by the closed-loop generator in loadgen.py:
    # serial lockstep on one keep-alive connection, then concurrently
    # over pipelined connections; the concurrent drive is best-of-3 and
    # must clear 10x the PR 5 threaded front end's 1,289.955 req/s.
    baseline_rps = 1289.955
    body = {"schema": "class A isa not B endclass class B endclass",
            "formula": "A and not B"}
    with ReproService(ServiceConfig(port=0)) as service:
        cold = loadgen.run_load(service.host, service.port, connections=1,
                                requests_per_connection=1, body=body)
        serial = loadgen.run_load(service.host, service.port,
                                  connections=1,
                                  requests_per_connection=200, body=body)
        concurrent = None
        for _ in range(3):
            trial = loadgen.run_load(
                service.host, service.port, connections=8,
                requests_per_connection=1000, pipeline=32, body=body,
                validate="first")
            if concurrent is None or trial.rps > concurrent.rps:
                concurrent = trial
        stats = service.cache.stats()
    emit("Query service — warm-cache throughput (POST /v1/satisfiable, "
         "keep-alive)",
         ["drive", "requests", "req/s", "p50 ms", "p99 ms",
          "vs threaded baseline"],
         [("PR 5 threaded baseline (1 conn, Connection: close)", "-",
           baseline_rps, "-", "-", "1.0x"),
          ("serial (1 conn, lockstep)", serial.requests, serial.rps,
           serial.percentile_ms(0.50), serial.percentile_ms(0.99),
           f"{serial.rps / baseline_rps:.1f}x"),
          ("concurrent (8 conns, pipeline 32, best of 3)",
           concurrent.requests, concurrent.rps,
           concurrent.percentile_ms(0.50), concurrent.percentile_ms(0.99),
           f"{concurrent.rps / baseline_rps:.1f}x")])
    assert cold.statuses == {200: 1}
    assert serial.statuses == {200: serial.requests}
    assert concurrent.statuses == {200: concurrent.requests}
    assert serial.envelope_violations == 0
    assert concurrent.envelope_violations == 0
    assert stats.misses == 1
    assert concurrent.rps >= 10.0 * baseline_rps, (
        f"{concurrent.rps:.0f} req/s is below 10x the threaded baseline")

    # Budget isolation over HTTP: a 50 ms X-Repro-Timeout-Ms against the
    # Theorem 4.1 EXPTIME reduction comes back 504 with partial stats,
    # while a concurrent trivial query is answered normally.
    reduction = machine_to_schema(parity_machine(), (0, 1, 0, 1), 6, 6)
    hard_body = {"schema": render_schema(reduction.schema),
                 "formula": str(reduction.target)}
    with ReproService(ServiceConfig(port=0)) as service:
        base = f"http://{service.host}:{service.port}"
        outcome: dict = {}

        def slow():
            outcome["hard"] = post(base, hard_body,
                                   headers={"X-Repro-Timeout-Ms": "50"})

        thread = threading.Thread(target=slow)
        wall_s, _ = timed(lambda: (
            thread.start(),
            outcome.__setitem__("easy", post(base, body)),
            thread.join(timeout=10)))
    hard_status, hard_payload = outcome["hard"]
    easy_status, easy_payload = outcome["easy"]
    print()
    emit("Query service — 50 ms budget vs EXPTIME reduction over HTTP",
         ["query", "status", "error code", "wall s"],
         [("EXPTIME reduction", hard_status,
           hard_payload.get("error", {}).get("code", "-"), wall_s),
          ("trivial neighbor", easy_status, "-", wall_s)])
    assert hard_status == 504 and easy_status == 200
    assert hard_payload["error"]["sysexit"] == 75
    assert easy_payload["data"]["verdict"] is True


def lp_backends() -> None:
    from repro.core.cardinality import Card
    from repro.core.formulas import Lit
    from repro.core.schema import Attr, ClassDef, Schema
    from repro.linear.backends import grouped_columns, solve_sparse_groups
    from repro.obs.tracer import Tracer, use_tracer
    from repro.workloads.generators import hierarchy_schema
    from tests.dense_reference import DenseReference

    def cluster(i: int, fan: int):
        a, b = f"A{i}", f"B{i}"
        return [
            ClassDef(a, isa=~Lit(b),
                     attributes=[Attr(f"link{i}", Card(fan, fan), b)]),
            ClassDef(b, attributes=[Attr(inv(f"link{i}"), Card(1, 1), a)]),
        ]

    rows = []
    # 10x the committed Theorem 4.3 series (which stops at 32 clusters).
    for n_clusters in (8, 32, 64, 128, 320):
        classes = []
        for i in range(n_clusters):
            classes.extend(cluster(i, fan=2 + (i % 3)))
        system = build_system(build_expansion(Schema(classes)))
        sparse_s, sparse = timed(
            lambda s=system: acceptable_support(s, backend="exact-sparse"))
        dense_s, dense = timed(
            lambda s=system: acceptable_support(s, backend=DenseReference()))
        assert sparse.support == dense.support
        rows.append((n_clusters, system.size(), system.n_unknowns(),
                     dense_s, sparse_s, round(dense_s / max(sparse_s, 1e-9), 1)))
    emit(
        "LP backends — dense reference vs sparse fraction-free on Psi_S",
        ["clusters", "|Psi_S|", "unknowns", "dense-reference s",
         "exact-sparse s", "speedup"], rows)

    rows = []
    for depth, branching in ((3, 3), (4, 3), (5, 3)):
        schema = hierarchy_schema(depth, branching, with_attributes=True,
                                  seed=9)
        system = build_system(build_expansion(schema))
        # The sparse simplex alone: the backend would take the certificate.
        lp_metrics: dict = {}
        lp_s, _ = timed(lambda s=system: solve_sparse_groups(
            *grouped_columns(s, list(range(s.n_unknowns()))), lp_metrics))
        tracer = Tracer()
        with use_tracer(tracer):
            closed_s, closed = timed(lambda s=system: acceptable_support(
                s, backend="exact-sparse"))
        assert closed.backend_used == "closed-form"
        assert tracer.counters.get("lp.pivots", 0) == 0
        rows.append((f"{depth}x{branching}", system.size(),
                     lp_metrics.get("lp.pivots", 0), lp_s, closed_s))
    emit(
        "Section 4.4 closed form vs sparse LP on hierarchies",
        ["hierarchy", "|Psi_S|", "LP pivots", "sparse LP s",
         "closed form s"], rows)


SECTIONS = [
    ("Figures 1 & 2", figures),
    ("Theorem 4.1 (EXPTIME-hardness shape)", theorem41),
    ("Theorem 4.2 (NP-hardness shape)", theorem42),
    ("Theorem 4.3 (polynomial linear phase)", theorem43),
    ("Theorem 4.4 (exponential upper bound)", theorem44),
    ("Theorem 4.5 (arity reduction)", theorem45),
    ("Theorem 4.6 / Section 4.3 (strategies)", theorem46),
    ("Section 4.4 (hierarchies)", section44),
    ("Theorem 3.3 constructive (synthesis)", synthesis),
    ("Expansion pipeline (indexes, pruning, incremental queries)",
     expansion_pipeline),
    ("Session reuse (SchemaSession warm vs cold)", session_reuse),
    ("Parallel batch (executor, deadlines)", parallel_batch),
    ("Query service (admission, result cache, budgets)", query_service),
    ("Query answering (CQ rewriting, certain answers, /v1/query)",
     query_answering),
    ("Registry revalidation (delta rebuild vs cold)", registry_revalidation),
    ("LP backends (sparse fraction-free vs dense exact, Section 4.4)",
     lp_backends),
    ("Ablations", ablations),
]


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the experiment tables for EXPERIMENTS.md.")
    parser.add_argument(
        "--only", metavar="KEYWORD",
        help="run only sections whose title contains KEYWORD "
             "(case-insensitive)")
    parser.add_argument(
        "--json", metavar="PATH",
        help="additionally write every table to PATH as JSON "
             "(e.g. BENCH_expansion.json)")
    parser.add_argument(
        "--profile", action="store_true",
        help="trace every section through the observability bus and print "
             "a per-stage breakdown after each one")
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write the sections' versioned JSON-lines traces to PATH "
             "(one header per section)")
    args = parser.parse_args(argv)

    sections = SECTIONS
    if args.only:
        keyword = args.only.lower()
        sections = [(title, runner) for title, runner in SECTIONS
                    if keyword in title.lower()]
        if not sections:
            parser.error(f"no section title contains {args.only!r}")

    global RECORDER
    if args.json:
        try:
            Path(args.json).touch()  # fail before the sections run, not after
        except OSError as exc:
            parser.error(f"cannot write {args.json}: {exc}")
        RECORDER = Recorder(command="run_experiments.py "
                            + " ".join(argv if argv is not None
                                       else sys.argv[1:]))

    tracing = args.profile or args.trace_out
    trace_lines: list = []
    for title, runner in sections:
        if RECORDER is not None:
            RECORDER.start_section(title)
        print("=" * 72)
        print(title)
        print("=" * 72)
        if tracing:
            from repro.obs.tracer import Tracer, use_tracer

            # One fresh tracer per section, installed as the ambient tracer:
            # every Pipeline/SchemaSession the section constructs picks it up
            # without the section code knowing about tracing at all.
            tracer = Tracer()
            with use_tracer(tracer):
                runner()
            if RECORDER is not None:
                RECORDER.record_trace(tracer.snapshot())
            if args.trace_out:
                trace_lines.extend(tracer.jsonl_lines())
            if args.profile:
                totals: dict = {}
                for record in tracer.spans:
                    totals[record.name] = (totals.get(record.name, 0.0)
                                           + record.duration)
                for name in sorted(totals):
                    print(f"  [trace] {name}: {totals[name] * 1000:.3f} ms")
                for name, value in sorted(tracer.counters.items()):
                    print(f"  [trace] {name} = {value}")
        else:
            runner()
        print()
    if args.trace_out:
        Path(args.trace_out).write_text(
            "".join(f"{line}\n" for line in trace_lines), encoding="utf-8")
        print(f"wrote {args.trace_out}")
    if RECORDER is not None:
        RECORDER.dump(args.json)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
