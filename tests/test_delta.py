"""Diff-aware incremental revalidation (PR 7's tentpole machinery).

The contract under test: for ANY pair of schema versions, a pipeline
produced by :meth:`Pipeline.recompile_from` — reusing table rows,
untouched clusters' expansion rows, compound classes, and ``Ψ_S`` block
supports from the previous version's pipeline (here rehydrated from its
:class:`CompiledSchema`) — must be *observationally identical* to a cold
build of the new version: the same compound classes,
the same maximal support, the same satisfiability verdict for every class
symbol.  The differential suites below drive that across randomized
single-definition edits (add / remove / rewrite a class, tighten an
attribute cardinality, touch a relation) on the workload generators.
"""

import random

import pytest

from repro.core.cardinality import Card
from repro.core.errors import ReasoningError
from repro.core.formulas import Clause, Formula, Lit
from repro.core.schema import (Attr, ClassDef, Part, RelationDef,
                               RoleClause, RoleLiteral, Schema)
from repro.engine import (EngineConfig, Pipeline, SchemaDelta,
                          SchemaSession, schema_fingerprint)
from repro.obs.tracer import Tracer, use_tracer
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import (cardinality_chain_schema,
                                        clustered_schema, hierarchy_schema,
                                        random_schema)

from .dense_reference import DenseReference

CONFIG = EngineConfig()


def compiled(schema, config=CONFIG):
    """A cold pipeline with Phase 2 solved, plus its artifact."""
    pipeline = Pipeline(schema, config)
    _ = pipeline.support
    return pipeline, pipeline.compile()


def support_set(pipeline):
    """The maximal support as a set of unknown *objects* (index-free)."""
    result = pipeline.support
    return {pipeline.system.unknowns[i] for i in result.support}


def assert_equivalent(delta_pipeline, new_schema, config=CONFIG):
    """The observational-identity oracle: delta rebuild == cold rebuild."""
    fresh = Pipeline(new_schema, config)
    assert set(delta_pipeline.expansion.compound_classes) == \
        set(fresh.expansion.compound_classes)
    assert set(delta_pipeline.expansion.compound_attributes) == \
        set(fresh.expansion.compound_attributes)
    assert set(delta_pipeline.expansion.compound_relations) == \
        set(fresh.expansion.compound_relations)
    assert support_set(delta_pipeline) == support_set(fresh)
    delta_reasoner = Reasoner.from_pipeline(delta_pipeline)
    fresh_reasoner = Reasoner.from_pipeline(fresh)
    for name in sorted(new_schema.class_symbols):
        assert delta_reasoner.is_satisfiable(name) == \
            fresh_reasoner.is_satisfiable(name), name


def revalidated(old, new, config=CONFIG):
    """old → compile → delta → recompile_from, returning the pipeline."""
    _, artifact = compiled(old, config)
    delta = SchemaDelta.between(old, new)
    return Pipeline.recompile_from(Pipeline.from_artifact(artifact), delta,
                                   config)


# ----------------------------------------------------------------------
# Randomized single-definition edits
# ----------------------------------------------------------------------
def edit_rewrite_isa(schema, rng):
    """Replace one class's isa-formula with a random new one."""
    defs = list(schema.class_definitions)
    target = rng.choice(defs)
    names = sorted(schema.class_symbols)
    clauses = tuple(
        Clause(tuple(Lit(name, positive=rng.random() < 0.7)
                     for name in rng.sample(names, rng.randint(1, 2))))
        for _ in range(rng.randint(1, 2)))
    replaced = ClassDef(target.name, Formula(clauses), target.attributes,
                        target.participates)
    return Schema([replaced if d.name == target.name else d for d in defs],
                  list(schema.relation_definitions))


def edit_add_class(schema, rng):
    """Append a fresh class whose isa references an existing one."""
    anchor = rng.choice(sorted(schema.class_symbols))
    extra = ClassDef(f"Fresh{rng.randint(0, 999)}",
                     Formula((Clause((Lit(anchor),)),)))
    return Schema(list(schema.class_definitions) + [extra],
                  list(schema.relation_definitions))


def edit_remove_class(schema, rng):
    """Drop one class definition (dangling references stay legal: a
    merely-mentioned symbol gets a trivial definition)."""
    defs = list(schema.class_definitions)
    target = rng.choice(defs)
    return Schema([d for d in defs if d.name != target.name],
                  list(schema.relation_definitions))


def edit_tighten_card(schema, rng):
    """Tighten one attribute cardinality to an exact count."""
    defs = list(schema.class_definitions)
    carriers = [d for d in defs if d.attributes]
    if not carriers:
        return edit_rewrite_isa(schema, rng)
    target = rng.choice(carriers)
    spec = rng.choice(target.attributes)
    tightened = tuple(
        Attr(s.ref, Card(1, 1), s.filler) if s is spec else s
        for s in target.attributes)
    replaced = ClassDef(target.name, target.isa, tightened,
                        target.participates)
    return Schema([replaced if d.name == target.name else d for d in defs],
                  list(schema.relation_definitions))


EDITS = [edit_rewrite_isa, edit_add_class, edit_remove_class,
         edit_tighten_card]


class TestDifferentialRandomizedEdits:
    """recompile_from == cold rebuild, across generators × edits × seeds."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("edit", EDITS)
    def test_random_schema(self, seed, edit):
        rng = random.Random(seed)
        old = random_schema(7, seed=seed)
        new = edit(old, rng)
        assert_equivalent(revalidated(old, new), new)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("edit", EDITS)
    def test_clustered_schema(self, seed, edit):
        rng = random.Random(seed)
        old = clustered_schema(4, 3, seed=seed)
        new = edit(old, rng)
        assert_equivalent(revalidated(old, new), new)

    @pytest.mark.parametrize("seed", range(3))
    def test_cardinality_chain(self, seed):
        rng = random.Random(seed)
        old = cardinality_chain_schema(4, fan_out=2)
        new = edit_tighten_card(old, rng)
        assert_equivalent(revalidated(old, new), new)

class TestSparseBackendDelta:
    """The sparse exact backend threads through ``restrict_to`` delta
    re-solving: revalidation under ``lp_backend="exact-sparse"`` must match
    a cold rebuild for every edit kind, and match the dense reference."""

    SPARSE = EngineConfig(lp_backend="exact-sparse")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("edit", EDITS)
    def test_random_schema_edits(self, seed, edit):
        rng = random.Random(seed)
        old = random_schema(7, seed=seed)
        new = edit(old, rng)
        assert_equivalent(revalidated(old, new, self.SPARSE), new,
                          self.SPARSE)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("edit", EDITS)
    def test_clustered_schema_edits(self, seed, edit):
        rng = random.Random(seed)
        old = clustered_schema(4, 3, seed=seed)
        new = edit(old, rng)
        assert_equivalent(revalidated(old, new, self.SPARSE), new,
                          self.SPARSE)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_delta_matches_dense_delta(self, seed):
        rng = random.Random(seed)
        old = clustered_schema(3, 3, seed=seed)
        new = edit_tighten_card(old, rng)
        dense = revalidated(old, new,
                            EngineConfig(lp_backend=DenseReference()))
        sparse = revalidated(old, new, self.SPARSE)
        assert support_set(dense) == support_set(sparse)


class TestChainedEdits:
    @pytest.mark.parametrize("seed", range(4))
    def test_chained_edits_carry_the_artifact_forward(self, seed):
        """v1 → v2 → v3 → v4, each revalidated from its predecessor's
        artifact — reuse must not accumulate drift."""
        rng = random.Random(seed)
        schema = clustered_schema(3, 3, seed=seed)
        pipeline, artifact = compiled(schema)
        for _ in range(3):
            new = rng.choice(EDITS)(schema, rng)
            delta = SchemaDelta.between(schema, new)
            pipeline = Pipeline.recompile_from(
                Pipeline.from_artifact(artifact), delta, CONFIG)
            assert_equivalent(pipeline, new)
            artifact = pipeline.compile()
            schema = new


class TestRelationEdits:
    """Relation-touching edits: the subtle cases (a changed relation can
    flip compound-relation consistency without moving any cluster)."""

    def base(self):
        return Schema(
            [ClassDef("Student"), ClassDef("Course"),
             ClassDef("Grad", isa="Student",
                      participates=[Part("Enr", "who", Card(1, 2))]),
             ClassDef("Loner")],
            [RelationDef("Enr", ("who", "what"), [
                RoleClause(RoleLiteral("who", "Student")),
                RoleClause(RoleLiteral("what", "Course")),
            ])])

    def test_changed_role_clause_is_not_missed(self):
        old = self.base()
        new = Schema(list(old.class_definitions), [
            RelationDef("Enr", ("who", "what"), [
                RoleClause(RoleLiteral("who", "Grad")),
                RoleClause(RoleLiteral("what", "Course")),
            ])])
        delta = SchemaDelta.between(old, new)
        assert delta.changed_relations == {"Enr"}
        assert {"Student", "Course", "Grad"} <= delta.dirty_classes()
        assert_equivalent(revalidated(old, new), new)

    def test_added_and_removed_relation(self):
        old = self.base()
        extra = RelationDef("Mentors", ("mentor", "mentee"), [
            RoleClause(RoleLiteral("mentor", "Grad"))])
        added = Schema(list(old.class_definitions),
                       list(old.relation_definitions) + [extra])
        assert_equivalent(revalidated(old, added), added)
        removed = Schema(
            [ClassDef(c.name, c.isa, c.attributes)
             for c in old.class_definitions], [])
        assert_equivalent(revalidated(old, removed), removed)

    def test_participation_edit_dirties_the_participant(self):
        old = self.base()
        defs = [ClassDef("Grad", Formula((Clause((Lit("Student"),)),)),
                         participates=[Part("Enr", "who", Card(2, 2))])
                if d.name == "Grad" else d
                for d in old.class_definitions]
        new = Schema(defs, list(old.relation_definitions))
        delta = SchemaDelta.between(old, new)
        assert "Grad" in delta.dirty_classes()
        assert_equivalent(revalidated(old, new), new)


# ----------------------------------------------------------------------
# Reuse accounting and guard rails
# ----------------------------------------------------------------------
class TestReuseAccounting:
    def test_single_cluster_edit_reuses_the_rest(self):
        old = clustered_schema(8, 4, seed=7)
        target = old.definition("K0_3")
        new_isa = Formula(tuple(target.isa.clauses)
                          + (Clause((Lit("K0_1"),)),))
        defs = [ClassDef(d.name, new_isa, d.attributes, d.participates)
                if d.name == "K0_3" else d
                for d in old.class_definitions]
        new = Schema(defs, [])
        pipeline = revalidated(old, new)
        assert_equivalent(pipeline, new)
        stats = pipeline.delta_stats
        assert stats["mode"] == "delta"
        assert stats["clusters_rebuilt"] == 1
        assert stats["clusters_reused"] == stats["clusters_total"] - 1
        assert stats["compounds_reused"] > 0
        assert stats["support_blocks_reused"] > 0

    def test_empty_delta_short_circuits(self):
        schema = clustered_schema(3, 3, seed=1)
        _, artifact = compiled(schema)
        pipeline = Pipeline.recompile_from(
            Pipeline.from_artifact(artifact),
            SchemaDelta.between(schema, schema), CONFIG)
        assert pipeline.delta_stats["mode"] == "unchanged"
        # the stored verdicts rehydrate: no Phase-2 recomputation needed
        assert "support" in pipeline._artifacts
        assert support_set(pipeline) == support_set(Pipeline(schema,
                                                             CONFIG))

    def test_naive_strategy_falls_back_to_fresh(self):
        config = EngineConfig(strategy="naive")
        old = clustered_schema(2, 2, seed=0)
        new = edit_add_class(old, random.Random(0))
        pipeline, artifact = compiled(old, config)
        delta = SchemaDelta.between(old, new)
        rebuilt = Pipeline.recompile_from(Pipeline.from_artifact(artifact),
                                          delta, config)
        assert rebuilt.delta_stats["mode"] == "fresh"
        assert_equivalent(rebuilt, new, config)

    def test_config_mismatch_is_refused(self):
        old = clustered_schema(2, 2, seed=0)
        _, artifact = compiled(old)
        delta = SchemaDelta.between(old, edit_add_class(
            old, random.Random(1)))
        with pytest.raises(ReasoningError):
            Pipeline.recompile_from(
                Pipeline.from_artifact(artifact,
                                       EngineConfig(strategy="naive")),
                delta)

    def test_wrong_old_schema_is_refused(self):
        schema_a = clustered_schema(2, 2, seed=0)
        schema_b = clustered_schema(2, 2, seed=5)
        _, artifact = compiled(schema_a)
        delta = SchemaDelta.between(schema_b, edit_add_class(
            schema_b, random.Random(1)))
        with pytest.raises(ReasoningError):
            Pipeline.recompile_from(Pipeline.from_artifact(artifact), delta,
                                    CONFIG)


class TestComponents:
    """``PsiSystem.components`` (a union-find over compound classes only)
    equals the components of every constraint row and endpoint edge."""

    @staticmethod
    def reference(system):
        parent = list(range(system.n_unknowns()))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        edges = [(row.coefficients[0][0], index)
                 for row in system.constraints
                 for index, _ in row.coefficients]
        edges += [(index, endpoint) for index in range(system.n_unknowns())
                  for endpoint in system.endpoints_of(index)]
        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups = {}
        for index in range(system.n_unknowns()):
            groups.setdefault(find(index), set()).add(index)
        return sorted(map(sorted, groups.values()))

    @pytest.mark.parametrize("schema", [
        random_schema(7, seed=2), clustered_schema(4, 3, seed=1),
        cardinality_chain_schema(4, fan_out=2),
        hierarchy_schema(2, 3, with_attributes=True, seed=1),
        TestRelationEdits().base()], ids=[
        "random", "clustered", "chain", "hierarchy", "relation"])
    def test_matches_rows_and_endpoint_edges(self, schema):
        system = Pipeline(schema, EngineConfig(strategy="strategic")).system
        components = system.components()
        n_classes = len(system.class_unknown_indices())
        for component in components:
            classes = [i for i in component if i < n_classes]
            assert component[:len(classes)] == classes  # classes lead
        assert sorted(map(sorted, components)) == self.reference(system)


class TestSchemaDelta:
    def test_between_classifies_every_edit_kind(self):
        old = Schema([ClassDef("A"), ClassDef("B"), ClassDef("Gone")],
                     [RelationDef("R", ("u",)), RelationDef("Dead", ("u",))])
        new = Schema(
            [ClassDef("A", isa="B"), ClassDef("B"), ClassDef("New")],
            [RelationDef("R", ("u", "v")), RelationDef("Born", ("u",))])
        delta = SchemaDelta.between(old, new)
        assert delta.added_classes == {"New"}
        assert delta.removed_classes == {"Gone"}
        assert delta.changed_classes == {"A"}
        assert delta.added_relations == {"Born"}
        assert delta.removed_relations == {"Dead"}
        assert delta.changed_relations == {"R"}
        assert delta.touched_relations() == {"R", "Dead", "Born"}
        assert not delta.is_empty()
        assert SchemaDelta.between(old, old).is_empty()

    def test_reordering_definitions_is_no_edit(self):
        defs = [ClassDef("A", isa="B"), ClassDef("B"), ClassDef("C")]
        old = Schema(defs)
        new = Schema(list(reversed(defs)))
        assert SchemaDelta.between(old, new).is_empty()
        assert schema_fingerprint(old) == schema_fingerprint(new)


# ----------------------------------------------------------------------
# SchemaSession.update / invalidate
# ----------------------------------------------------------------------
class TestSessionUpdate:
    def edited(self, schema, seed=3):
        return edit_rewrite_isa(schema, random.Random(seed))

    def test_update_reports_delta_reuse(self):
        old = clustered_schema(5, 3, seed=2)
        new = self.edited(old)
        session = SchemaSession()
        _ = session.reasoner(old).pipeline.support
        reasoner, report = session.update(old, new)
        assert report.mode == "delta"
        assert report.clusters_reused > 0
        assert report.fingerprint_old == schema_fingerprint(old)
        assert report.fingerprint_new == schema_fingerprint(new)
        assert report.duration_s > 0
        assert new in session
        fresh = Pipeline(new, session.config)
        assert support_set(reasoner.pipeline) == support_set(fresh)

    def test_update_accepts_a_fingerprint_for_old(self):
        old = clustered_schema(3, 3, seed=4)
        new = self.edited(old)
        session = SchemaSession()
        _ = session.reasoner(old).pipeline.support
        _, report = session.update(schema_fingerprint(old), new)
        assert report.mode == "delta"

    def test_warm_fingerprint_update_compiles_only_the_new_version(
            self, tmp_path, monkeypatch):
        """The registry names the old version by fingerprint.  With it warm
        in the LRU, update neither fingerprints nor compiles the old
        version: ``Pipeline.compile`` runs once, for the new artifact."""
        from repro.engine import session as session_module

        config = EngineConfig(artifact_dir=str(tmp_path))
        old = clustered_schema(3, 3, seed=4)
        new = self.edited(old)
        session = SchemaSession(config)
        _ = session.reasoner(old).pipeline.support
        old_fp = schema_fingerprint(old)

        fingerprinted = []
        original_fingerprint = session_module.schema_fingerprint

        def counting_fingerprint(schema):
            fingerprint = original_fingerprint(schema)
            fingerprinted.append(fingerprint)
            return fingerprint

        compiled_schemas = []
        original_compile = Pipeline.compile

        def counting_compile(pipeline):
            compiled_schemas.append(pipeline.schema)
            return original_compile(pipeline)

        monkeypatch.setattr(session_module, "schema_fingerprint",
                            counting_fingerprint)
        monkeypatch.setattr(Pipeline, "compile", counting_compile)
        _, report = session.update(old_fp, new)
        assert report.mode == "delta"
        assert old_fp not in fingerprinted
        assert len(compiled_schemas) == 1
        assert compiled_schemas[0] is new

    def test_rebuilt_pipeline_releases_the_previous_system(self):
        """The seeds go once their stages have built: a version's pipeline
        does not pin its predecessor's ``Ψ_S`` (a long-running session
        would otherwise hold every version it ever saw)."""
        import gc
        import weakref

        old = clustered_schema(4, 3, seed=1)
        new = self.edited(old)
        prev = Pipeline(old, CONFIG)
        _ = prev.support
        previous_system = weakref.ref(prev.system)
        pipeline = Pipeline.recompile_from(
            prev, SchemaDelta.between(old, new))
        assert pipeline.delta_stats["mode"] == "delta"
        _ = pipeline.support
        assert pipeline.delta_stats["support_blocks_reused"] > 0
        del prev
        gc.collect()
        assert previous_system() is None
        assert_equivalent(pipeline, new)

    def test_racing_first_builds_of_a_seeded_pipeline_agree(self):
        """Threads racing on the first build of a delta-seeded pipeline
        all get the cold build's support: a seed dropped by the winning
        builder must not break one already inside its stage."""
        import sys
        import threading

        old = clustered_schema(4, 3, seed=1)
        new = self.edited(old)
        prev = Pipeline(old, CONFIG)
        _ = prev.support
        expected = support_set(Pipeline(new, CONFIG))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                pipeline = Pipeline.recompile_from(
                    prev, SchemaDelta.between(old, new))
                results, errors = [], []

                def build():
                    try:
                        results.append(support_set(pipeline))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=build) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_update_without_previous_is_fresh(self):
        session = SchemaSession()
        _, report = session.update(None, "class A isa B endclass "
                                         "class B endclass")
        assert report.mode == "fresh"

    def test_update_persists_verdict_bearing_artifacts(self, tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path))
        old = clustered_schema(3, 3, seed=5)
        new = self.edited(old)
        session = SchemaSession(config)
        _ = session.reasoner(old).pipeline.support
        session.update(old, new)
        artifact = session.artifact_cache.load(
            schema_fingerprint(new), config)
        assert artifact is not None
        assert artifact.support is not None
        # a second session rehydrates Phase 2 from the stored verdicts
        other = SchemaSession(config)
        rehydrated = other.reasoner(new).pipeline
        assert "support" in rehydrated._artifacts

    def test_unchanged_update_skips_phase2(self, tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path))
        schema = clustered_schema(3, 3, seed=6)
        session = SchemaSession(config)
        _ = session.reasoner(schema).pipeline.support
        _, report = session.update(schema, schema)
        assert report.mode == "unchanged"

    def test_update_certifies_the_dirty_blocks(self):
        """The dirty blocks of a delta revalidation take the §4.4
        certificate too: one new clause in one cluster of an isa-only
        schema re-solves without a pivot."""
        old = clustered_schema(8, 4, seed=7)
        target = sorted(d.name for d in old.class_definitions
                        if d.name.startswith("K0_"))[-1]
        new = Schema([
            d if d.name != target else ClassDef(
                target, Formula(d.isa.clauses + (Clause((Lit("K0_1"),)),)),
                d.attributes, d.participates)
            for d in old.class_definitions])
        session = SchemaSession()
        _ = session.reasoner(old).pipeline.support
        tracer = Tracer()
        with use_tracer(tracer):
            reasoner, report = session.update(old, new)
        assert report.mode == "delta"
        assert tracer.counter("lp.hierarchy_closed_form") == 1
        assert tracer.counter("lp.pivots") == 0
        fresh = Pipeline(new, EngineConfig(lp_backend=DenseReference()))
        assert support_set(reasoner.pipeline) == support_set(fresh)

    def test_hierarchy_fallback_builds_tables_once(self, monkeypatch):
        """A new version the §4.4 closed form covers revalidates fresh,
        on the preselection tables the delta planner built to find that
        out."""
        from repro.expansion import tables

        old = hierarchy_schema(2, 3, with_attributes=True, seed=1)
        new = hierarchy_schema(2, 3, with_attributes=True, seed=2)
        session = SchemaSession()
        _ = session.reasoner(old).pipeline.support
        built = []
        original = tables.SchemaTables.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(tables.SchemaTables, "__init__", counting)
        reasoner, report = session.update(old, new)
        assert report.mode == "fresh"
        assert len(built) == 1
        assert reasoner.expansion.strategy == "hierarchy"

    def test_invalidate_drops_peek_snapshot(self):
        session = SchemaSession()
        schema = "class A endclass"
        _ = session.reasoner(schema).pipeline.support
        fingerprint = schema_fingerprint(schema)
        assert session.peek_compiled(fingerprint) is not None
        session.invalidate(schema)
        assert session.peek_compiled(fingerprint) is None

    def test_invalidate_disarms_the_persist_hook(self, tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path))
        session = SchemaSession(config)
        schema = "class A isa B endclass class B endclass"
        reasoner = session.reasoner(schema)
        session.invalidate(schema, drop_artifacts=True)
        # the popped pipeline builds later — it must NOT store a snapshot
        _ = reasoner.pipeline.support
        assert session.artifact_cache.load(
            schema_fingerprint(schema), config) is None

    def test_invalidate_drop_artifacts_unlinks_the_snapshot(self,
                                                            tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path))
        session = SchemaSession(config)
        schema = "class A isa B endclass class B endclass"
        _ = session.reasoner(schema).pipeline.support
        fingerprint = schema_fingerprint(schema)
        assert session.artifact_cache.load(fingerprint, config) is not None
        session.invalidate(schema, drop_artifacts=True)
        assert session.artifact_cache.load(fingerprint, config) is None

    def test_invalidate_without_flag_keeps_the_snapshot(self, tmp_path):
        config = EngineConfig(artifact_dir=str(tmp_path))
        session = SchemaSession(config)
        schema = "class A isa B endclass class B endclass"
        _ = session.reasoner(schema).pipeline.support
        fingerprint = schema_fingerprint(schema)
        session.invalidate(schema)
        assert session.artifact_cache.load(fingerprint, config) is not None
