"""Unit tests for Ψ_S construction and the maximal-acceptable-support solver."""

import pytest

from repro.core.cardinality import Card
from repro.core.formulas import Lit
from repro.core.schema import Attr, ClassDef, Part, RelationDef, RoleClause, RoleLiteral, Schema, inv
from repro.expansion.expansion import build_expansion
from repro.linear.support import acceptable_support
from repro.linear.system import build_system
from repro.parser.parser import parse_schema

from .dense_reference import DenseReference


def support_of(schema: Schema, backend: str = "auto"):
    return acceptable_support(build_expansion(schema), backend=backend)


def satisfiable(schema: Schema, name: str, backend: str = "auto") -> bool:
    result = support_of(schema, backend)
    return any(name in members for members in result.supported_compound_classes())


class TestSystemConstruction:
    def test_counts_figure2(self):
        from repro.workloads.paper_schemas import figure2_schema

        system = build_system(build_expansion(figure2_schema()))
        assert system.n_unknowns() == 1290
        assert system.n_constraints() == 242
        assert system.size() == system.n_unknowns() + system.n_nonzeros()

    def test_no_constraints_without_cards(self):
        schema = parse_schema("class A isa B endclass")
        system = build_system(build_expansion(schema))
        assert system.n_constraints() == 0

    def test_views_are_built_once(self):
        """The unknowns and constraints are stored tuples, not copies made
        per access (callers index them inside loops)."""
        schema = parse_schema("""
            class A attributes a : (1, 2) B endclass
            class B endclass
        """)
        system = build_system(build_expansion(schema))
        assert system.unknowns is system.unknowns
        assert system.constraints is system.constraints
        assert system.constraints
        assert all(type(coeff) is int for constraint in system.constraints
                   for _, coeff in constraint.coefficients)

    def test_endpoints_of(self):
        schema = Schema([
            ClassDef("A", attributes=[Attr("x", Card(1, 1), "B")]),
            ClassDef("B"),
        ])
        system = build_system(build_expansion(schema))
        compound_attr_indices = [
            i for i, unknown in enumerate(system.unknowns)
            if not isinstance(unknown, frozenset)
        ]
        assert compound_attr_indices
        for index in compound_attr_indices:
            endpoints = system.endpoints_of(index)
            assert len(endpoints) == 2


class TestSupportBasics:
    def test_unconstrained_schema_fully_supported(self):
        schema = parse_schema("""
            class A isa B endclass
            class B endclass
        """)
        result = support_of(schema)
        assert len(result.support) == result.system.n_unknowns()

    def test_isa_contradiction_unsupported(self):
        schema = parse_schema("""
            class Student isa Person and not Professor endclass
            class TA isa Student and Professor endclass
        """)
        assert not satisfiable(schema, "TA")
        assert satisfiable(schema, "Student")

    def test_mandatory_attribute_keeps_class_alive(self):
        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 1), "D")]),
            ClassDef("D"),
        ])
        assert satisfiable(schema, "C")

    def test_mandatory_attribute_with_empty_filler_kills_class(self):
        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 1), Lit("D") & ~Lit("D"))]),
            ClassDef("D"),
        ])
        assert not satisfiable(schema, "C")
        assert satisfiable(schema, "D")

    def test_self_loop_ratio_conflict(self):
        # The finite-model subtlety: exactly 1 outgoing but exactly 3
        # incoming a-links per C instance, all within C.  Only the linear
        # phase detects this (|a| = |C| and |a| = 3|C| simultaneously).
        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 1), "C"),
                                      Attr(inv("a"), Card(3, 3), "C")]),
        ])
        assert not satisfiable(schema, "C")

    def test_self_loop_balanced(self):
        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 1), "C"),
                                      Attr(inv("a"), Card(1, 1), "C")]),
        ])
        assert satisfiable(schema, "C")

    def test_empty_merged_interval_kills_compound(self):
        schema = Schema([
            ClassDef("A", attributes=[Attr("a", Card(2, 3), "X")]),
            ClassDef("B", attributes=[Attr("a", Card(0, 1), "X")]),
            ClassDef("E", isa=Lit("A") & Lit("B")),
            ClassDef("X"),
        ])
        assert not satisfiable(schema, "E")
        assert satisfiable(schema, "A")


class TestParticipationSupport:
    def test_participation_needs_partner_classes(self):
        schema = Schema(
            [ClassDef("C", isa=~Lit("D"),
                      participates=[Part("R", "u", Card(1, 1))])],
            [RelationDef("R", ("u", "v"),
                         [RoleClause(RoleLiteral("u", "D"))])])
        assert not satisfiable(schema, "C")

    def test_participation_ratio(self):
        # Every C is in exactly 2 tuples at u; every D in exactly 1 at v:
        # |R| = 2|C| = |D| — satisfiable by taking twice as many Ds.
        schema = Schema(
            [ClassDef("C", participates=[Part("R", "u", Card(2, 2))]),
             ClassDef("D", isa=~Lit("C"),
                      participates=[Part("R", "v", Card(1, 1))])],
            [RelationDef("R", ("u", "v"), [
                RoleClause(RoleLiteral("u", "C")),
                RoleClause(RoleLiteral("v", "D")),
            ])])
        assert satisfiable(schema, "C")
        assert satisfiable(schema, "D")

    def test_figure2_supported(self):
        from repro.workloads.paper_schemas import figure2_schema

        result = support_of(figure2_schema())
        names = {"Person", "Professor", "Student", "Grad_Student",
                 "Course", "Adv_Course"}
        supported_names = set()
        for members in result.supported_compound_classes():
            supported_names.update(members)
        assert names <= supported_names


class TestBackends:
    def small_schemas(self):
        yield Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 1), "C"),
                                      Attr(inv("a"), Card(3, 3), "C")]),
        ])
        yield Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 2), "D")]),
            ClassDef("D", attributes=[Attr(inv("a"), Card(2, 2), "C")]),
        ])
        yield parse_schema("""
            class Student isa Person and not Professor endclass
            class TA isa Student and Professor endclass
        """)

    def test_exact_and_float_agree(self):
        for schema in self.small_schemas():
            exact = support_of(schema, backend=DenseReference())
            floaty = support_of(schema, backend="float-fallback")
            assert exact.support == floaty.support

    def test_bad_backend_rejected(self):
        from repro.core.errors import LinearSystemError

        with pytest.raises(LinearSystemError):
            support_of(Schema([ClassDef("A")]), backend="bogus")


class TestWitness:
    def test_integer_witness_scales(self):
        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 2), "D")]),
            ClassDef("D", attributes=[Attr(inv("a"), Card(2, 2), "C")]),
        ])
        result = support_of(schema, backend="exact-sparse")
        witness = result.integer_solution(scale=3)
        assert all(isinstance(v, int) and v >= 0 for v in witness.values())
        positive = {i for i, v in witness.items() if v > 0}
        # The witness concentrates interchangeable compound attributes on a
        # representative, so it is positive on a subset of the support —
        # but on *every* supported compound-class unknown.
        assert positive <= set(result.support)
        for index in result.support:
            if isinstance(result.system.unknowns[index], frozenset):
                assert index in positive

    def test_witness_satisfies_constraints(self):
        from fractions import Fraction

        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 2), "D")]),
            ClassDef("D", attributes=[Attr(inv("a"), Card(2, 2), "C")]),
        ])
        result = support_of(schema, backend="exact-sparse")
        for constraint in result.system.constraints:
            total = sum(
                (coeff * result.solution[var] for var, coeff in
                 constraint.coefficients), Fraction(0))
            assert total <= 0, constraint.origin

    def test_scale_must_be_positive(self):
        from repro.core.errors import LinearSystemError

        result = support_of(Schema([ClassDef("A")]))
        with pytest.raises(LinearSystemError):
            result.integer_solution(scale=0)


class TestMinimizedWitness:
    def test_minimized_is_valid_and_small(self):
        from fractions import Fraction

        from repro.linear.support import minimize_witness

        schema = Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 2), "D")]),
            ClassDef("D", attributes=[Attr(inv("a"), Card(2, 2), "C")]),
        ])
        result = support_of(schema, backend="exact-sparse")
        minimized = minimize_witness(result)
        assert minimized is not None
        # Valid: satisfies every disequation.
        for constraint in result.system.constraints:
            total = sum((coeff * minimized[var]
                         for var, coeff in constraint.coefficients),
                        Fraction(0))
            assert total <= 0, constraint.origin
        # Positive on every supported compound class.
        for index in result.support:
            if isinstance(result.system.unknowns[index], frozenset):
                assert minimized[index] >= 1
        # No larger than the max-support witness in total mass.
        assert (sum(minimized.values())
                <= sum(result.solution.values()) + Fraction(1, 10 ** 6))

    def test_minimized_shrinks_reasoner_witness(self):
        from repro.reasoner.satisfiability import Reasoner
        from repro.workloads.paper_schemas import figure2_schema

        reasoner = Reasoner(figure2_schema())
        counts = reasoner.witness_counts()
        total = sum(v for k, v in counts.items() if isinstance(k, frozenset))
        # The unminimized witness used to require >1000 objects here.
        assert 0 < total <= 300
