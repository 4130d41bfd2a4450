"""The observability subsystem: tracer bus, wiring, and typed stats.

Covers the event/metric bus itself (spans, counters, gauges, the versioned
JSON-lines export), its wiring through every pipeline layer (expansion
counters, LP metrics, session cache gauges), the ambient tracer — the only
route from a layer to the bus, read at call time — and the typed stats
dataclasses.
"""

import json

from repro.engine.config import EngineConfig
from repro.engine.session import SchemaSession
from repro.engine.stats import (
    STATS_SCHEMA_VERSION,
    PipelineStats,
    SessionStats,
)
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)
from repro.parser.parser import parse_schema
from repro.reasoner.satisfiability import Reasoner

from .lp_parity import COUPLED_SOURCE

ATTR_SOURCE = """
class Person isa Top endclass
class Employee isa Person and not Student
  attributes salary : (1, 1) Top
endclass
class Student isa Person endclass
class Top endclass
"""

CARD_SOURCE = """
class C isa not D attributes a : (1, 2) D endclass
class D endclass
"""


class TestTracerBus:
    def test_spans_record_duration_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert inner.name == "inner" and inner.parent == "outer"
        assert outer.name == "outer" and outer.parent is None
        assert inner.duration >= 0 and outer.duration >= inner.duration
        assert tracer.span_count("inner") == 1
        assert tracer.span_seconds("outer") == outer.duration

    def test_counters_accumulate_and_gauges_sample(self):
        tracer = Tracer()
        tracer.add("hits")
        tracer.add("hits", 4)
        tracer.gauge("size", 2)
        tracer.gauge("size", 7)
        assert tracer.counter("hits") == 5
        assert tracer.counter("never") == 0
        assert tracer.gauges["size"] == 7

    def test_clear_resets_everything(self):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.add("c")
        tracer.clear()
        assert tracer.spans == [] and tracer.counters == {}

    def test_snapshot_is_json_able(self):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.add("c", 2)
        snapshot = tracer.snapshot()
        assert snapshot["trace_schema"] == TRACE_SCHEMA_VERSION
        json.dumps(snapshot)  # must not raise


class TestTraceJsonlSchema:
    """Snapshot test pinning the versioned JSON-lines trace format."""

    def test_schema_version_is_pinned(self):
        # Bumping TRACE_SCHEMA_VERSION must be a conscious act: consumers
        # (CI artifacts, the benchmark recorder) match on it.
        assert TRACE_SCHEMA_VERSION == 1

    def test_line_shapes(self):
        tracer = Tracer()
        with tracer.span("pipeline.demo"):
            tracer.add("demo.counter", 3)
        tracer.gauge("demo.gauge", 1.5)
        lines = [json.loads(line) for line in tracer.jsonl_lines()]
        header, span, counter, gauge = lines
        assert header == {"type": "header",
                          "trace_schema": TRACE_SCHEMA_VERSION,
                          "generator": "repro"}
        assert span["type"] == "span" and span["name"] == "pipeline.demo"
        assert set(span) == {"type", "name", "start_s", "duration_s",
                             "parent"}
        assert counter == {"type": "counter", "name": "demo.counter",
                           "value": 3}
        assert gauge == {"type": "gauge", "name": "demo.gauge", "value": 1.5}

    def test_write_jsonl_to_path(self, tmp_path):
        tracer = Tracer()
        tracer.add("c")
        target = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(target))
        lines = target.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "header"


class TestNullTracer:
    def test_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_all_operations_are_noops(self):
        with NULL_TRACER.span("anything"):
            NULL_TRACER.add("c", 5)
            NULL_TRACER.gauge("g", 1)
        assert NULL_TRACER.counter("c") == 0
        assert NULL_TRACER.span_count("anything") == 0
        assert NULL_TRACER.snapshot()["spans"] == []

    def test_span_reuses_one_context_object(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestAmbientTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_scopes_the_ambient(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_pipeline_picks_up_ambient_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            Reasoner(parse_schema(ATTR_SOURCE)).is_satisfiable("Employee")
        assert tracer.span_count("pipeline.support") == 1
        assert tracer.counter("expansion.compound_classes") > 0


class TestPerCallTracing:
    """Layers read the ambient tracer when they run, not when they were
    built: a cached pipeline reports to whoever is asking now."""

    #: Two clusters of G_S: {A, B, C} and {X, Y, Z}.
    TWO_CLUSTERS = """
    class A endclass
    class B isa A and not C endclass
    class C isa A endclass
    class X endclass
    class Y isa X and not Z endclass
    class Z isa X endclass
    """

    def test_cached_pipeline_records_into_the_calling_tracer(self):
        session = SchemaSession()
        first, second = Tracer(), Tracer()
        with use_tracer(first):
            session.reasoner(ATTR_SOURCE)  # lazy: builds no stage
        with use_tracer(second):
            assert session.satisfiable(ATTR_SOURCE, "Employee") is True
        assert second.span_count("pipeline.support") == 1
        assert second.counter("session.cache_hits") == 1
        assert not [span for span in first.spans
                    if span.name.startswith("pipeline.")]

    def test_delta_and_augmented_rebuilds_count_dpll_work(self):
        from repro.parser.parser import parse_formula

        old = self.TWO_CLUSTERS
        new = old.replace("class Z isa X endclass",
                          "class Z isa X and not Y endclass")
        session = SchemaSession(EngineConfig(strategy="strategic"))
        _ = session.reasoner(old).pipeline.support
        edit = Tracer()
        with use_tracer(edit):
            reasoner, report = session.update(old, new)
        assert report.mode == "delta"
        assert edit.counter("registry.rebuilt") == 1
        assert edit.counter("expansion.dpll_branches") > 0

        # B and Y sit in different clusters: the augmented query is a
        # one-class delta that re-runs DPLL on the merged cluster.
        query = Tracer()
        with use_tracer(query):
            assert reasoner.is_formula_satisfiable(
                parse_formula("B and Y")) is True
        assert query.span_count("pipeline.delta_seed") == 1
        assert query.counter("expansion.dpll_branches") > 0


class TestExpansionCounters:
    def test_pruning_and_memo_counters(self):
        tracer = Tracer()
        with use_tracer(tracer):
            Reasoner(parse_schema(ATTR_SOURCE)).expansion
        examined = tracer.counter("expansion.candidates_examined")
        pruned = tracer.counter("expansion.candidates_pruned")
        classes = tracer.counter("expansion.compound_classes")
        assert classes == 5
        # The full Cartesian space per attribute is |classes|²; binding
        # endpoint pruning must account for every skipped candidate.
        assert examined > 0
        assert examined + pruned == classes ** 2
        memo = (tracer.counter("expansion.memo_hits")
                + tracer.counter("expansion.memo_misses"))
        assert memo > 0

    def test_dpll_counters_on_clustered_schema(self):
        from repro.workloads.generators import clustered_schema

        tracer = Tracer()
        config = EngineConfig(strategy="strategic")
        with use_tracer(tracer):
            Reasoner(clustered_schema(2, 3, seed=0), config=config).expansion
        assert tracer.counter("expansion.dpll_branches") > 0
        assert tracer.counter("expansion.compound_classes") > 0

    def test_hierarchy_closed_form_counter(self):
        tracer = Tracer()
        with use_tracer(tracer):
            Reasoner(parse_schema(ATTR_SOURCE)).expansion
        assert tracer.counter("expansion.hierarchy_closed_form") == 1

    def test_reuse_builds_partition_the_cartesian_space(self):
        """Reuse builds (here: augmented queries, one-class deltas) report
        the same counter block as cold builds: examined + copied + pruned
        is the full Cartesian count, so ``candidates_pruned`` is never
        negative."""
        from repro.core.formulas import Lit
        from repro.core.schema import ClassDef
        from repro.workloads.generators import (hierarchy_schema,
                                                wide_attribute_schema)
        from repro.workloads.query_workloads import taxonomy_schema

        copied = 0
        for schema in (taxonomy_schema(3, 1), wide_attribute_schema(4),
                       hierarchy_schema(3, 2, with_attributes=True, seed=3)):
            base = Reasoner(schema,
                            config=EngineConfig(strategy="strategic"))
            _ = base.pipeline.support
            names = sorted(schema.class_symbols)
            for index, formula in enumerate((
                    Lit(names[0]) & Lit(names[-1]),
                    Lit(names[len(names) // 2]) & ~Lit(names[1]))):
                tracer = Tracer()
                with use_tracer(tracer):
                    pipeline = base.augmented_with(
                        ClassDef(f"Q{index}", isa=formula)).pipeline
                    expansion = pipeline.expansion
                assert pipeline.delta_stats["mode"] == "delta"
                n = len(expansion.compound_classes)
                cartesian = (
                    len(schema.attribute_symbols) * n ** 2
                    + sum(n ** rdef.arity
                          for rdef in schema.relation_definitions))
                pruned = tracer.counter("expansion.candidates_pruned")
                assert pruned >= 0
                assert (tracer.counter("expansion.candidates_examined")
                        + tracer.counter("expansion.candidates_copied")
                        + pruned) == cartesian
                assert tracer.counter("expansion.memo_misses") > 0
                copied += tracer.counter("expansion.candidates_copied")
        assert copied > 0


class TestLpMetrics:
    def test_exact_backend_counts_pivots(self):
        from repro.expansion.expansion import build_expansion
        from repro.linear.support import acceptable_support

        tracer = Tracer()
        with use_tracer(tracer):
            acceptable_support(build_expansion(parse_schema(COUPLED_SOURCE)),
                               backend="exact-sparse")
        assert tracer.counter("lp.rounds") >= 1
        assert tracer.counter("lp.sparse_solves") >= 1
        assert tracer.counter("lp.pivots") > 0

    def test_float_unavailable_falls_back_to_exact(self, monkeypatch):
        from repro.expansion.expansion import build_expansion
        from repro.linear import backends
        from repro.linear.support import acceptable_support

        monkeypatch.setattr(backends, "solve_float_groups",
                            lambda groups, rows: None)
        tracer = Tracer()
        expansion = build_expansion(parse_schema(CARD_SOURCE))
        with use_tracer(tracer):
            result = acceptable_support(expansion, backend="float-fallback")
        assert result.backend_used == "exact-sparse"
        assert tracer.counter("lp.float_exact_fallbacks") >= 1
        assert tracer.counter("lp.float_solves") == 0
        assert tracer.counter("lp.pivots") > 0

    def test_degenerate_floats_detected_and_refused(self, monkeypatch):
        from repro.expansion.expansion import build_expansion
        from repro.linear import backends
        from repro.linear.support import acceptable_support

        # Every value sits inside the open ambiguity band (1e-9, 1e-6):
        # too close to zero to classify, so the exact core must take over.
        monkeypatch.setattr(
            backends, "solve_float_groups",
            lambda groups, rows: [1e-7] * len(groups))
        tracer = Tracer()
        expansion = build_expansion(parse_schema(CARD_SOURCE))
        with use_tracer(tracer):
            result = acceptable_support(expansion, backend="float-fallback")
        assert result.backend_used == "exact-sparse"
        assert tracer.counter("lp.degenerate_detections") >= 1
        assert tracer.counter("lp.float_exact_fallbacks") >= 1

    def test_support_pin_counters(self):
        tracer = Tracer()
        # C requires 1..2 links to D but C and D are disjoint is fine;
        # an unsatisfiable class produces acceptability/propagation pins.
        source = """
        class A isa not B attributes a : (1, 2) B endclass
        class B isa not A and not B endclass
        """
        reasoner = Reasoner(parse_schema(source))
        with use_tracer(tracer):
            reasoner.support
        pinned = sum(tracer.counter(f"support.pins_{phase}")
                     for phase in ("acceptability", "propagation", "linear"))
        assert pinned == len(reasoner.support.pin_log)
        assert pinned > 0


class TestSessionObservability:
    def test_cache_counters_and_gauge(self):
        session = SchemaSession()
        tracer = Tracer()
        with use_tracer(tracer):
            session.satisfiable(ATTR_SOURCE, "Employee")
            session.satisfiable(ATTR_SOURCE, "Student")
        assert tracer.counter("session.cache_misses") == 1
        assert tracer.counter("session.cache_hits") == 1
        assert tracer.gauges["session.cache_size"] == 1

    def test_eviction_counter(self):
        session = SchemaSession(EngineConfig(session_cache_limit=1))
        tracer = Tracer()
        with use_tracer(tracer):
            session.satisfiable(ATTR_SOURCE, "Employee")
            session.satisfiable(CARD_SOURCE, "C")
        assert tracer.counter("session.cache_evictions") == 1

    def test_shared_tracer_instance(self):
        # One bus across sessions: both report into the installed tracer.
        shared = Tracer()
        with use_tracer(shared):
            SchemaSession().satisfiable(ATTR_SOURCE, "Employee")
            SchemaSession().satisfiable(CARD_SOURCE, "C")
        assert shared.counter("session.cache_misses") == 2


class TestTypedStats:
    def test_pipeline_stats_payload(self):
        stats = Reasoner(parse_schema(ATTR_SOURCE)).stats()
        assert isinstance(stats, PipelineStats)
        assert stats.classes == 4
        assert stats.schema_version == STATS_SCHEMA_VERSION
        payload = stats.to_json()
        assert payload["stats_schema"] == STATS_SCHEMA_VERSION
        assert payload["classes"] == 4
        assert any(key.startswith("time_") for key in payload)
        json.dumps(payload)  # must not raise

    def test_session_stats_payload(self):
        session = SchemaSession()
        session.satisfiable(ATTR_SOURCE, "Employee")
        session.satisfiable(ATTR_SOURCE, "Student")
        info = session.cache_info()
        assert isinstance(info, SessionStats)
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert info.hit_rate == 0.5
        assert info.to_json()["hit_rate"] == 0.5


class TestNearZeroDisabledCost:
    def test_reasoner_defaults_to_null_tracer(self, monkeypatch):
        # Outside any use_tracer scope every layer reports to the null bus.
        reported = []
        monkeypatch.setattr(NullTracer, "add",
                            lambda self, name, amount=1: reported.append(name))
        Reasoner(parse_schema(ATTR_SOURCE)).is_satisfiable("Employee")
        assert "expansion.compound_classes" in reported
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_is_shared_not_allocated(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an untraced run allocated a Tracer")

        monkeypatch.setattr(Tracer, "__init__", refuse)
        Reasoner(parse_schema(ATTR_SOURCE)).is_satisfiable("Employee")
        SchemaSession().satisfiable(CARD_SOURCE, "C")

    def test_verdicts_identical_with_and_without_tracing(self):
        schema = parse_schema(CARD_SOURCE)
        traced = Reasoner(schema)
        plain = Reasoner(schema)
        for name in sorted(schema.class_symbols):
            with use_tracer(Tracer()):
                verdict = traced.is_satisfiable(name)
            assert verdict == plain.is_satisfiable(name)
