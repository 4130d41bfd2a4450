"""Edge-case tests sweeping the corners of several modules."""

import pytest

from repro.core.cardinality import Card
from repro.core.errors import ParseError
from repro.core.formulas import Formula, Lit, TOP
from repro.core.schema import Attr, ClassDef, Schema
from repro.parser.parser import parse_schema
from repro.reasoner.satisfiability import Reasoner


class TestParserDiagnostics:
    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_schema("class C\n  isa and\nendclass")
        assert excinfo.value.line == 2
        assert excinfo.value.column > 0

    def test_error_message_names_expectation(self):
        with pytest.raises(ParseError) as excinfo:
            parse_schema("class C isa A endclas")
        assert "endclass" in str(excinfo.value) or "expected" in str(excinfo.value)

    def test_reserved_word_as_class_name(self):
        with pytest.raises(ParseError):
            parse_schema("class class endclass")

    def test_empty_source_is_empty_schema(self):
        schema = parse_schema("   -- nothing here\n")
        assert not schema.class_definitions
        assert not schema.relation_definitions


class TestDegenerateSchemas:
    def test_schema_with_no_definitions(self):
        reasoner = Reasoner(Schema([]))
        assert reasoner.check_coherence().is_coherent
        assert reasoner.satisfiable_classes() == []

    def test_class_mentioned_only_negatively(self):
        reasoner = Reasoner(parse_schema("class A isa not Ghost endclass"))
        assert reasoner.is_satisfiable("A")
        assert reasoner.is_satisfiable("Ghost")

    def test_zero_zero_attribute(self):
        # (0, 0): the attribute is forbidden for C, fine for others.
        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(0, 0))]),
            ClassDef("D", attributes=[Attr("a", Card(1, 1), "D")]),
        ])
        reasoner = Reasoner(schema)
        assert reasoner.is_satisfiable("C")
        assert reasoner.is_satisfiable("D")
        # C ∧ D merges (0,0) with (1,1): empty interval.
        assert not reasoner.is_formula_satisfiable(Lit("C") & Lit("D"))

    def test_tautological_isa(self):
        reasoner = Reasoner(parse_schema("class A isa B or not B endclass"))
        assert reasoner.is_satisfiable("A")

    def test_formula_top_always_satisfiable(self):
        reasoner = Reasoner(Schema([ClassDef("A")]))
        assert reasoner.is_formula_satisfiable(TOP)

    def test_empty_clause_formula_unsatisfiable(self):
        from repro.core.formulas import Clause

        reasoner = Reasoner(Schema([ClassDef("A")]))
        falsum = Formula((Clause(()),))
        assert not reasoner.is_formula_satisfiable(falsum)

    def test_self_referential_attribute_types(self):
        # C's attribute points at C itself with loose cards: fine.
        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(0, 2), "C")]),
        ])
        assert Reasoner(schema).is_satisfiable("C")


class TestSupportIntrospection:
    def test_pin_events_accessible(self):
        from repro.expansion.expansion import build_expansion
        from repro.linear.support import acceptable_support

        schema = parse_schema("""
            class Sup attributes x : (2, 2) T endclass
            class Sub isa Sup attributes x : (0, 1) T endclass
            class T endclass
        """)
        result = acceptable_support(build_expansion(schema))
        pinned = [event for event in result.pin_log]
        assert pinned
        assert all(event.phase in ("propagation", "acceptability", "linear")
                   for event in pinned)

    def test_backend_recorded(self):
        from repro.expansion.expansion import build_expansion
        from repro.linear.support import acceptable_support

        # An attribute and its inverse: the §4.4 certificate refuses the
        # coupled entries, so the simplex answers.
        schema = parse_schema("""
            class A attributes a : (2, 2) B endclass
            class B attributes (inv a) : (1, 1) A endclass
        """)
        result = acceptable_support(build_expansion(schema),
                                    backend="exact-sparse")
        assert result.backend_used in ("exact-sparse", "propagation")


class TestReasonerGuards:
    def test_fresh_class_name_avoids_collisions(self):
        schema = parse_schema("class __Query endclass")
        reasoner = Reasoner(schema)
        fresh = reasoner.fresh_class_name()
        assert fresh not in schema.class_symbols

    def test_formula_satisfiability_cache(self):
        schema = parse_schema("""
            class A endclass
            class B endclass
        """)
        reasoner = Reasoner(schema)
        formula = Lit("A") & Lit("B")
        first = reasoner.is_formula_satisfiable(formula)
        second = reasoner.is_formula_satisfiable(formula)
        assert first == second == True  # noqa: E712 — explicit tri-check

    def test_stats_after_queries(self):
        reasoner = Reasoner(parse_schema("class A isa B endclass"))
        reasoner.is_satisfiable("A")
        stats = reasoner.stats()
        assert stats.supported >= 1


class TestTuringTrace:
    def test_configuration_rendering(self):
        from repro.reductions.turing import parity_machine

        outcome = parity_machine().run("10", time=5, space=3)
        text = str(outcome.trace[0])
        assert "even" in text and "[" in text

    def test_halted_flag(self):
        from repro.reductions.turing import parity_machine, never_accepts

        done = parity_machine().run("0", time=10, space=2)
        assert done.halted
        spinning = never_accepts().run("0", time=3, space=1)
        assert not spinning.halted
