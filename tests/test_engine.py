"""The engine layer: EngineConfig, the staged Pipeline, and SchemaSession."""

import pytest

from repro.core.errors import LinearSystemError, ReasoningError
from repro.core.schema import ClassDef, Schema
from repro.core.formulas import Lit
from repro.engine import (
    EngineConfig,
    Pipeline,
    SchemaSession,
    schema_fingerprint,
)
from repro.parser.parser import parse_schema
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import (clustered_schema, hierarchy_schema,
                                        random_schema)

from .dense_reference import DenseReference

GOOD_SOURCE = """
class Person endclass
class Student isa Person and not Professor endclass
class Professor isa Person endclass
"""

REORDERED_SOURCE = """
class Professor isa Person endclass
class Person endclass
class Student isa Person and not Professor endclass
"""

BAD_SOURCE = GOOD_SOURCE + """
class TA isa Student and Professor endclass
"""


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.strategy == "auto"
        assert config.size_limit is None
        assert config.lp_backend == "auto"

    def test_frozen_and_hashable(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.strategy = "naive"
        assert hash(config) == hash(EngineConfig())
        assert config == EngineConfig()

    def test_replace_derives_variants(self):
        config = EngineConfig().replace(strategy="naive",
                                        lp_backend="exact-sparse")
        assert config.strategy == "naive"
        assert config.lp_backend == "exact-sparse"
        assert EngineConfig().strategy == "auto"  # original untouched

    def test_bad_strategy_rejected(self):
        # "auto" takes the §4.4 route by itself: no "hierarchy" strategy.
        assert EngineConfig.STRATEGIES == ("auto", "naive", "strategic")
        for strategy in ("bogus", "hierarchy"):
            with pytest.raises(ReasoningError, match="strategy"):
                EngineConfig(strategy=strategy)

    def test_bad_backend_rejected(self):
        with pytest.raises(LinearSystemError, match="unknown LP backend"):
            EngineConfig(lp_backend="bogus")

    def test_bad_limits_rejected(self):
        with pytest.raises(ReasoningError):
            EngineConfig(size_limit=0)
        with pytest.raises(ReasoningError):
            EngineConfig(session_cache_limit=0)

    def test_replace_revalidates(self):
        with pytest.raises(ReasoningError):
            EngineConfig().replace(strategy="bogus")

    def test_as_dict_round_trip(self):
        config = EngineConfig(strategy="strategic", size_limit=100)
        assert EngineConfig(**config.as_dict()) == config


class TestPipeline:
    def test_construction_is_lazy(self):
        pipeline = Pipeline(parse_schema(GOOD_SOURCE))
        assert pipeline.built_stages() == ()
        assert pipeline.timer.readings() == {}

    def test_support_pulls_the_whole_chain(self):
        pipeline = Pipeline(parse_schema(GOOD_SOURCE))
        pipeline.support
        assert pipeline.built_stages() == (
            "tables", "expansion", "system", "support")

    def test_artifacts_are_cached(self):
        pipeline = Pipeline(parse_schema(GOOD_SOURCE))
        assert pipeline.expansion is pipeline.expansion
        assert pipeline.timer.count("expansion") == 1

    def test_stage_timings_do_not_nest(self):
        pipeline = Pipeline(parse_schema(GOOD_SOURCE))
        pipeline.expansion
        # tables built as a prerequisite, timed under its own stage only
        assert pipeline.timer.count("tables") == 1
        assert pipeline.timer.count("expansion") == 1

    def test_naive_strategy_skips_tables(self):
        pipeline = Pipeline(parse_schema(GOOD_SOURCE),
                            EngineConfig(strategy="naive"))
        pipeline.expansion
        assert "tables" not in pipeline.built_stages()

    def test_config_reaches_the_stages(self):
        pipeline = Pipeline(parse_schema(GOOD_SOURCE),
                            EngineConfig(lp_backend=DenseReference()))
        assert pipeline.support.backend_used in ("dense-reference",
                                                 "propagation")

    def test_size_limit_guard(self):
        pipeline = Pipeline(clustered_schema(3, 3, seed=0),
                            EngineConfig(size_limit=1))
        with pytest.raises(ReasoningError):
            pipeline.expansion

    def test_stats_builds_missing_stages(self):
        pipeline = Pipeline(parse_schema(GOOD_SOURCE))
        stats = pipeline.stats()
        assert stats.classes == 3
        assert "support" in stats.timings

    def test_strategies_agree(self):
        schema = clustered_schema(2, 3, seed=1)
        verdicts = set()
        for strategy in ("auto", "naive", "strategic"):
            pipeline = Pipeline(schema, EngineConfig(strategy=strategy))
            populated = pipeline.support.supported_compound_classes()
            verdicts.add(frozenset(
                name for name in schema.class_symbols
                if any(name in members for members in populated)))
        assert len(verdicts) == 1


class TestPhaseOneRoute:
    """``Expansion.strategy`` records the Phase-1 route that ran — the one
    place the §4.4 hierarchy decision is made and kept."""

    HIERARCHY = hierarchy_schema(2, 3, with_attributes=True, seed=1)

    def test_auto_records_the_route_that_ran(self):
        assert Pipeline(self.HIERARCHY).expansion.strategy == "hierarchy"
        assert (Pipeline(clustered_schema(4, 3, seed=1)).expansion.strategy
                == "strategic")

    def test_requested_strategies_record_themselves(self):
        for strategy in ("naive", "strategic"):
            pipeline = Pipeline(self.HIERARCHY,
                                EngineConfig(strategy=strategy))
            assert pipeline.expansion.strategy == strategy

    def test_stats_report_the_route(self):
        stats = Pipeline(self.HIERARCHY).stats()
        assert stats.strategy == "hierarchy"
        assert stats.to_json()["strategy"] == "hierarchy"

    def test_route_survives_compile_and_rehydration(self):
        for schema, route in ((self.HIERARCHY, "hierarchy"),
                              (clustered_schema(4, 3, seed=1), "strategic")):
            artifact = Pipeline(schema).compile()
            rehydrated = Pipeline.from_artifact(artifact)
            assert rehydrated.expansion.strategy == route

    def test_augmented_seeding_records_strategic(self):
        schema = clustered_schema(3, 2, seed=1)
        base = Reasoner(schema)
        base.support
        probe = ClassDef(base.fresh_class_name("Probe"),
                         isa=Lit("K0_0") | Lit("K1_0"))
        seeded = base.augmented_with(probe)
        assert seeded.pipeline.delta_stats["mode"] == "delta"
        assert seeded.expansion.strategy == "strategic"

    def test_hierarchy_route_seeds_augmented_queries(self):
        """A §4.4 base seeds its augmented pipelines too: its paths are
        the consistent compound classes of each untouched cluster."""
        base = Reasoner(self.HIERARCHY)
        base.support
        assert base.expansion.strategy == "hierarchy"
        names = sorted(base.schema.class_symbols)
        for isa in (Lit("N1"), Lit(names[1]) & Lit(names[-1])):
            probe = ClassDef(base.fresh_class_name("Probe"), isa=isa)
            seeded = base.augmented_with(probe)
            cold = Reasoner(base.schema.with_class(probe))
            assert seeded.pipeline.delta_stats["mode"] == "delta"
            assert (set(seeded.expansion.compound_classes)
                    == set(cold.expansion.compound_classes))
            for name in names + [probe.name]:
                assert seeded.is_satisfiable(name) == cold.is_satisfiable(name)

    def test_delta_build_records_strategic(self):
        old = clustered_schema(4, 3, seed=1)
        edited = [definition if definition.name != "K0_0" else
                  ClassDef("K0_0", isa=Lit("K0_1"))
                  for definition in old.class_definitions]
        session = SchemaSession()
        session.reasoner(old).support
        reasoner, report = session.update(old, Schema(edited))
        assert report.mode == "delta"
        assert reasoner.expansion.strategy == "strategic"


class TestReasonerFacade:
    """The Reasoner keeps its public surface while delegating to Pipeline."""

    def test_explicit_config_wins(self):
        config = EngineConfig(strategy="strategic", lp_backend="exact-sparse")
        reasoner = Reasoner(parse_schema(GOOD_SOURCE), config=config)
        assert reasoner.config is config
        assert reasoner.pipeline.config is config

    def test_pipeline_artifacts_shared_with_facade(self):
        reasoner = Reasoner(parse_schema(GOOD_SOURCE))
        assert reasoner.expansion is reasoner.pipeline.expansion
        assert reasoner.support is reasoner.pipeline.support

    def test_augmented_reasoner_inherits_config(self):
        config = EngineConfig(strategy="strategic", lp_backend="exact-sparse")
        reasoner = Reasoner(clustered_schema(2, 3, seed=2), config=config)
        reasoner.support
        name = reasoner.fresh_class_name()
        augmented = reasoner.augmented_with(ClassDef(name, isa=Lit("K0_0")))
        assert augmented.config is config


class TestFingerprint:
    def test_order_insensitive(self):
        assert (schema_fingerprint(parse_schema(GOOD_SOURCE))
                == schema_fingerprint(parse_schema(REORDERED_SOURCE)))

    def test_accepts_source_text(self):
        assert (schema_fingerprint(GOOD_SOURCE)
                == schema_fingerprint(parse_schema(GOOD_SOURCE)))

    def test_distinguishes_schemas(self):
        assert (schema_fingerprint(parse_schema(GOOD_SOURCE))
                != schema_fingerprint(parse_schema(BAD_SOURCE)))

    def test_stable_across_render_round_trips(self):
        from repro.parser.printer import render_schema

        schema = clustered_schema(2, 3, seed=3)
        assert (schema_fingerprint(schema)
                == schema_fingerprint(parse_schema(render_schema(schema))))

    def test_hash_is_stored_on_the_schema(self, count_calls):
        """A schema is rendered and hashed once; one pickled without the
        stored hash (an older payload) is hashed on demand."""
        import pickle

        from repro.parser.printer import render_schema

        schema = parse_schema(GOOD_SOURCE)
        renders = count_calls(render_schema)
        fingerprint = schema_fingerprint(schema)
        assert schema_fingerprint(schema) == fingerprint
        assert len(renders) == 1
        older = pickle.loads(pickle.dumps(schema))
        del older.__dict__["_fingerprint"]
        assert schema_fingerprint(older) == fingerprint
        assert len(renders) == 2


class TestSchemaSession:
    def test_cache_hit_returns_same_reasoner(self):
        session = SchemaSession()
        first = session.reasoner(parse_schema(GOOD_SOURCE))
        second = session.reasoner(parse_schema(REORDERED_SOURCE))
        assert first is second
        info = session.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_warm_pipeline_is_reused(self):
        session = SchemaSession()
        schema = parse_schema(GOOD_SOURCE)
        session.satisfiable(schema, "Student")
        reasoner = session.reasoner(schema)
        assert "support" in reasoner.pipeline.built_stages()
        assert reasoner.pipeline.timer.count("support") == 1
        session.satisfiable(schema, "Professor")
        assert reasoner.pipeline.timer.count("support") == 1  # no rebuild

    def test_lru_eviction(self):
        session = SchemaSession(EngineConfig(session_cache_limit=2))
        schemas = [random_schema(4, seed=seed) for seed in range(3)]
        for schema in schemas:
            session.reasoner(schema)
        assert len(session) == 2
        assert session.cache_info().evictions == 1
        assert schemas[0] not in session          # the oldest was evicted
        assert schemas[1] in session
        assert schemas[2] in session

    def test_lru_recency_updated_on_hit(self):
        session = SchemaSession(EngineConfig(session_cache_limit=2))
        schemas = [random_schema(4, seed=seed) for seed in range(3)]
        session.reasoner(schemas[0])
        session.reasoner(schemas[1])
        session.reasoner(schemas[0])              # refresh 0's recency
        session.reasoner(schemas[2])              # evicts 1, not 0
        assert schemas[0] in session
        assert schemas[1] not in session

    def test_membership_by_fingerprint(self):
        session = SchemaSession()
        schema = parse_schema(GOOD_SOURCE)
        session.reasoner(schema)
        assert schema_fingerprint(schema) in session
        assert schema_fingerprint(BAD_SOURCE) not in session

    def test_invalidate_one_and_all(self):
        session = SchemaSession()
        schema = parse_schema(GOOD_SOURCE)
        session.reasoner(schema)
        session.invalidate(schema)
        assert schema not in session
        session.reasoner(schema)
        session.invalidate()
        assert len(session) == 0

    def test_check_coherence_matches_reasoner(self):
        session = SchemaSession()
        schema = parse_schema(BAD_SOURCE)
        report = session.check_coherence(schema)
        assert report.unsatisfiable == ("TA",)
        assert str(report) == str(Reasoner(schema).check_coherence())

    def test_check_many_batches_formulas(self):
        session = SchemaSession()
        schema = parse_schema(GOOD_SOURCE)
        verdicts = session.check_many(schema, [
            Lit("Student"), Lit("Student") & Lit("Professor")])
        assert verdicts == [True, False]
        assert session.cache_info().misses == 1  # one pipeline served both

    def test_classify_and_stats_entry_points(self):
        session = SchemaSession()
        assert "Student isa Person" in str(session.classify(GOOD_SOURCE))
        stats = session.stats(GOOD_SOURCE)
        assert stats.classes == 3
        assert session.cache_info().hits >= 1  # classify warmed the cache

    def test_accepts_source_text_everywhere(self):
        session = SchemaSession()
        assert session.satisfiable(GOOD_SOURCE, "Student")
        assert not session.satisfiable(
            "class A isa not A endclass", "A")

    def test_session_config_reaches_reasoners(self):
        session = SchemaSession(EngineConfig(lp_backend="exact-sparse",
                                             strategy="strategic"))
        reasoner = session.reasoner(parse_schema(GOOD_SOURCE))
        assert reasoner.config.lp_backend == "exact-sparse"
        assert reasoner.config.strategy == "strategic"
