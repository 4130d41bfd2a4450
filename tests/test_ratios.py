"""Unit tests for population-ratio analysis."""

from fractions import Fraction

import pytest

from repro.core.errors import ReasoningError
from repro.linear import ratios
from repro.parser.parser import parse_schema
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import cardinality_chain_schema
from repro.workloads.paper_schemas import figure2_schema

from . import dense_reference
from .lp_parity import SMALL_SCHEMAS


class TestFixedRatios:
    def test_chain_forces_exact_doubling(self):
        reasoner = Reasoner(cardinality_chain_schema(2, fan_out=2))
        bounds = reasoner.population_ratio("L1", "L0")
        assert bounds.fixed() == Fraction(2)
        bounds = reasoner.population_ratio("L2", "L0")
        assert bounds.fixed() == Fraction(4)

    def test_inverse_direction(self):
        reasoner = Reasoner(cardinality_chain_schema(1, fan_out=3))
        bounds = reasoner.population_ratio("L0", "L1")
        assert bounds.fixed() == Fraction(1, 3)

    def test_one_to_five(self):
        reasoner = Reasoner(parse_schema("""
            class C isa not D attributes a : (1, 1) D endclass
            class D attributes (inv a) : (5, 5) C endclass
        """))
        bounds = reasoner.population_ratio("C", "D")
        assert bounds.fixed() == Fraction(5)


class TestRangeRatios:
    def test_interval_ratio(self):
        # Each C points at 1..3 Ds, each D absorbs exactly one link:
        # |D| between |C| and 3|C|.
        reasoner = Reasoner(parse_schema("""
            class C isa not D attributes a : (1, 3) D endclass
            class D attributes (inv a) : (1, 1) C endclass
        """))
        bounds = reasoner.population_ratio("D", "C")
        assert bounds.lower == Fraction(1)
        assert bounds.upper == Fraction(3)
        assert bounds.fixed() is None

    def test_unbounded_above(self):
        reasoner = Reasoner(parse_schema("""
            class C endclass
            class D endclass
        """))
        bounds = reasoner.population_ratio("D", "C")
        assert bounds.lower == 0
        assert bounds.upper is None
        assert "∞" in str(bounds)

    def test_figure2_courses_vs_professors(self):
        reasoner = Reasoner(figure2_schema())
        bounds = reasoner.population_ratio("Course", "Professor")
        # Every professor teaches 1-2 courses and every course has exactly
        # one teacher, so |Course| >= |Professor|; grad students may teach
        # arbitrarily many further courses.
        assert bounds.lower >= 1
        assert bounds.upper is None

    def test_figure2_students_per_course(self):
        reasoner = Reasoner(figure2_schema())
        bounds = reasoner.population_ratio("Student", "Course")
        # Each course enrolls >= 5 students, each student sits in <= 6
        # courses: at least 5/6 students per course in every model.
        assert bounds.lower >= Fraction(5, 6)


class TestDegenerateCases:
    def test_unsatisfiable_numerator_is_zero(self):
        reasoner = Reasoner(parse_schema("""
            class Bad isa Good and not Good endclass
            class Good endclass
        """))
        bounds = reasoner.population_ratio("Bad", "Good")
        assert bounds.fixed() == 0

    def test_unsatisfiable_denominator_rejected(self):
        reasoner = Reasoner(parse_schema("""
            class Bad isa Good and not Good endclass
            class Good endclass
        """))
        with pytest.raises(ReasoningError):
            reasoner.population_ratio("Good", "Bad")

    def test_unknown_class_rejected(self):
        reasoner = Reasoner(parse_schema("class A endclass"))
        with pytest.raises(ReasoningError):
            reasoner.population_ratio("A", "Nope")

    def test_self_ratio_is_one(self):
        reasoner = Reasoner(parse_schema("class A endclass"))
        assert reasoner.population_ratio("A", "A").fixed() == 1

    def test_subclass_ratio_bounds(self):
        reasoner = Reasoner(parse_schema("""
            class Person endclass
            class Student isa Person endclass
        """))
        bounds = reasoner.population_ratio("Student", "Person")
        assert bounds.lower == 0
        assert bounds.upper == 1  # Student ⊆ Person in every model


class TestDenseReferenceParity:
    """The ratio LPs (negative right-hand sides: the normalization row)
    give equal bounds on the sparse core and on the dense reference."""

    @staticmethod
    def bounds(support, pairs):
        outcome = []
        for numerator, denominator in pairs:
            try:
                bounds = ratios.population_ratio_bounds(
                    support, numerator, denominator)
                outcome.append((bounds.lower, bounds.upper))
            except ReasoningError as error:  # unsatisfiable denominator
                outcome.append(str(error))
        return outcome

    def assert_parity(self, schema, pairs, monkeypatch):
        support = Reasoner(schema).support
        sparse = self.bounds(support, pairs)
        monkeypatch.setattr(ratios, "solve_sparse_lp",
                            dense_reference.solve_sparse_lp)
        assert self.bounds(support, pairs) == sparse
        return sparse

    @pytest.mark.parametrize("name", sorted(SMALL_SCHEMAS))
    def test_small_schemas(self, name, monkeypatch):
        schema = SMALL_SCHEMAS[name]()
        names = sorted(schema.class_symbols)
        self.assert_parity(schema, [(a, b) for a in names for b in names],
                           monkeypatch)

    def test_figure2(self, monkeypatch):
        [(lower, upper)] = self.assert_parity(
            figure2_schema(), [("Course", "Professor")], monkeypatch)
        assert lower == 1 and upper is None
