"""Unit tests for compound objects, tables, clusters, and the expansion."""

import pytest

from repro.core.cardinality import Card
from repro.core.formulas import Lit
from repro.core.schema import (
    Attr,
    AttrRef,
    ClassDef,
    Part,
    RelationDef,
    RoleClause,
    RoleLiteral,
    Schema,
    inv,
)
from repro.expansion.compound import (
    CompoundAttribute,
    CompoundRelation,
    is_consistent_compound_attribute,
    is_consistent_compound_class,
    is_consistent_compound_relation,
    merged_attr_card,
    merged_participation_card,
)
from repro.expansion.enumerate import (
    compound_classes,
    naive_compound_classes,
    strategic_compound_classes,
)
from repro.expansion.expansion import build_expansion
from repro.expansion.graph import (
    clusters,
    hierarchy_compound_classes,
    hierarchy_forest,
    impose_cluster_disjointness,
    schema_graph,
)
from repro.expansion.tables import build_tables
from repro.parser.parser import parse_schema


def university() -> Schema:
    return parse_schema("""
        class Person endclass
        class Professor isa Person endclass
        class Student isa Person and not Professor endclass
        class Grad_Student isa Student endclass
    """)


class TestCompoundClasses:
    def test_empty_compound_consistent(self):
        assert is_consistent_compound_class(university(), frozenset())

    def test_member_isa_must_be_realized(self):
        schema = university()
        assert is_consistent_compound_class(
            schema, frozenset({"Student", "Person"}))
        # Student without Person violates Student's isa.
        assert not is_consistent_compound_class(schema, frozenset({"Student"}))
        # Student with Professor violates the negative literal.
        assert not is_consistent_compound_class(
            schema, frozenset({"Student", "Person", "Professor"}))

    def test_naive_enumeration_counts(self):
        schema = university()
        consistent = naive_compound_classes(schema)
        # All 16 subsets filtered by the constraints above.
        assert frozenset() in consistent
        assert frozenset({"Person"}) in consistent
        assert frozenset({"Grad_Student", "Student", "Person"}) in consistent
        assert frozenset({"Grad_Student"}) not in consistent
        for members in consistent:
            assert is_consistent_compound_class(schema, members)

    def test_strategic_equals_naive_on_single_cluster(self):
        schema = university()
        assert set(strategic_compound_classes(schema)) == set(
            naive_compound_classes(schema))

    def test_strategy_dispatch(self):
        schema = university()
        for strategy in ("auto", "naive", "strategic"):
            result = compound_classes(schema, strategy)
            assert frozenset({"Person"}) in result
        for retired in ("bogus", "hierarchy"):
            with pytest.raises(ValueError):
                compound_classes(schema, retired)


class TestCompoundAttributes:
    def schema(self) -> Schema:
        return Schema([
            ClassDef("Course",
                     attributes=[Attr("taught_by", Card(1, 1),
                                      Lit("Professor") | Lit("Grad"))]),
            ClassDef("Professor",
                     attributes=[Attr(inv("taught_by"), Card(1, 2), "Course")]),
            ClassDef("Grad"),
        ])

    def test_forward_filler_must_be_realized(self):
        schema = self.schema()
        good = CompoundAttribute("taught_by", frozenset({"Course"}),
                                 frozenset({"Professor"}))
        assert is_consistent_compound_attribute(schema, good)
        bad = CompoundAttribute("taught_by", frozenset({"Course"}),
                                frozenset({"Course"}))
        assert not is_consistent_compound_attribute(schema, bad)

    def test_inverse_filler_must_be_realized(self):
        schema = self.schema()
        # Professor at the right end demands Course at the left end.
        bad = CompoundAttribute("taught_by", frozenset({"Grad"}),
                                frozenset({"Professor"}))
        assert not is_consistent_compound_attribute(schema, bad)

    def test_inconsistent_endpoint_rejected(self):
        schema = parse_schema("class A isa not A endclass")  # A always empty
        compound = CompoundAttribute("x", frozenset({"A"}), frozenset())
        assert not is_consistent_compound_attribute(schema, compound)


class TestCompoundRelations:
    def schema(self) -> Schema:
        return Schema(
            [ClassDef("Student"), ClassDef("Course"), ClassDef("Grad",
                                                               isa="Student")],
            [RelationDef("Enrollment", ("enrolled_in", "enrolls"), [
                RoleClause(RoleLiteral("enrolled_in", "Course")),
                RoleClause(RoleLiteral("enrolls", "Student")),
            ])])

    def test_role_clauses_enforced(self):
        schema = self.schema()
        good = CompoundRelation("Enrollment", {
            "enrolled_in": frozenset({"Course"}),
            "enrolls": frozenset({"Student"})})
        assert is_consistent_compound_relation(schema, good)
        bad = CompoundRelation("Enrollment", {
            "enrolled_in": frozenset({"Student"}),
            "enrolls": frozenset({"Student"})})
        assert not is_consistent_compound_relation(schema, bad)

    def test_wrong_roles_rejected(self):
        schema = self.schema()
        wrong = CompoundRelation("Enrollment", {"enrolled_in": frozenset()})
        assert not is_consistent_compound_relation(schema, wrong)

    def test_getitem(self):
        compound = CompoundRelation("R", {"u": frozenset({"A"}), "v": frozenset()})
        assert compound["u"] == frozenset({"A"})
        with pytest.raises(KeyError):
            compound["w"]


class TestMergedCards:
    def test_umax_vmin(self):
        schema = Schema([
            ClassDef("Student", participates=[Part("R", "u", Card(1, 6))]),
            ClassDef("Grad", isa="Student",
                     participates=[Part("R", "u", Card(2, 3))]),
        ], [RelationDef("R", ("u",))])
        merged = merged_participation_card(
            schema, frozenset({"Student", "Grad"}), "R", "u")
        assert merged == Card(2, 3)

    def test_absent_returns_none(self):
        schema = university()
        assert merged_attr_card(schema, frozenset({"Person"}), AttrRef("x")) is None

    def test_conflicting_merge_is_empty(self):
        schema = Schema([
            ClassDef("A", attributes=[Attr("a", Card(2, 3))]),
            ClassDef("B", attributes=[Attr("a", Card(0, 1))]),
        ])
        merged = merged_attr_card(schema, frozenset({"A", "B"}), AttrRef("a"))
        assert merged is not None and merged.is_empty()


class TestTables:
    def test_unit_inclusion_closure(self):
        schema = university()
        tables = build_tables(schema)
        assert tables.includes("Grad_Student", "Person")
        assert tables.includes("Grad_Student", "Grad_Student")
        assert not tables.includes("Person", "Grad_Student")

    def test_derived_disjointness(self):
        tables = build_tables(university())
        # Grad_Student ⊑ Student ⟂ Professor.
        assert tables.are_disjoint("Grad_Student", "Professor")
        assert not tables.are_disjoint("Student", "Person")

    def test_empty_class_detection(self):
        schema = parse_schema("""
            class A isa B and not B endclass
            class B endclass
        """)
        tables = build_tables(schema)
        assert "A" in tables.empty_classes

    def test_empty_propagates_to_subclasses(self):
        schema = parse_schema("""
            class A isa B and not B endclass
            class B endclass
            class C isa A endclass
        """)
        assert "C" in build_tables(schema).empty_classes

    def test_admissible(self):
        tables = build_tables(university())
        assert tables.admissible({"Student", "Person"})
        assert not tables.admissible({"Student"})  # misses superclass Person
        assert not tables.admissible({"Student", "Person", "Professor"})


class TestGraphAndClusters:
    def test_isa_arcs(self):
        schema = university()
        graph = schema_graph(schema)
        assert "Person" in graph["Student"]

    def test_disconnected_clusters(self):
        schema = parse_schema("""
            class A isa B endclass
            class B endclass
            class C isa D endclass
            class D endclass
        """)
        comps = clusters(schema)
        assert {frozenset({"A", "B"}), frozenset({"C", "D"})} == set(comps)

    def test_attribute_fillers_connect(self):
        schema = parse_schema("""
            class A attributes x : (1, 1) B or C endclass
            class B endclass
            class C endclass
        """)
        comps = clusters(schema)
        assert len(comps) == 1

    def test_role_groups_connect(self):
        schema = parse_schema("""
            class A participates in R[u] : (1, 1) endclass
            class B endclass
            relation R(u, v) constraints (u : B) endrelation
        """)
        graph = schema_graph(schema)
        assert "B" in graph["A"]

    def test_disjointness_removes_arcs(self):
        schema = parse_schema("""
            class A isa B and not B endclass
            class B endclass
        """)
        tables = build_tables(schema)
        graph = schema_graph(schema, tables)
        assert "B" not in graph["A"]

    def test_impose_cluster_disjointness_adds_negatives(self):
        schema = parse_schema("""
            class A isa B endclass
            class B endclass
            class C endclass
        """)
        modified = impose_cluster_disjointness(schema)
        isa = modified.definition("A").isa
        assert not isa.satisfied_by({"B", "C"})
        assert isa.satisfied_by({"B"})


class TestHierarchies:
    def hierarchy(self) -> Schema:
        return parse_schema("""
            class Root endclass
            class L isa Root and not R endclass
            class R isa Root and not L endclass
            class LL isa L and not LR endclass
            class LR isa L and not LL endclass
        """)

    def test_forest_detection(self):
        parent = hierarchy_forest(self.hierarchy())
        assert parent == {"Root": None, "L": "Root", "R": "Root",
                          "LL": "L", "LR": "L"}

    def test_forest_rejects_unions(self):
        schema = parse_schema("class A isa B or C endclass")
        assert hierarchy_forest(schema) is None

    def test_forest_rejects_multiple_parents(self):
        schema = parse_schema("class A isa B and C endclass")
        assert hierarchy_forest(schema) is None

    def test_forest_rejects_cycles(self):
        schema = parse_schema("""
            class A isa B endclass
            class B isa A endclass
        """)
        assert hierarchy_forest(schema) is None

    def test_closed_form_matches_naive(self):
        schema = self.hierarchy()
        closed = hierarchy_compound_classes(schema)
        assert closed is not None
        assert set(closed) == set(naive_compound_classes(schema))
        # One compound class per class, plus the empty one (Section 4.4).
        assert len(closed) == len(schema.class_symbols) + 1

    def test_closed_form_refuses_without_sibling_disjointness(self):
        schema = parse_schema("""
            class Root endclass
            class L isa Root endclass
            class R isa Root endclass
        """)
        # {L, R, Root} is consistent here, so the closed form must refuse.
        assert hierarchy_compound_classes(schema) is None


class TestExpansionBuild:
    def test_figure2_expansion_sizes(self):
        from repro.workloads.paper_schemas import figure2_schema

        expansion = build_expansion(figure2_schema())
        assert len(expansion.compound_classes) == 30
        assert expansion.compound_relations["Exam"] == ()
        assert len(expansion.compound_relations["Enrollment"]) > 0
        assert expansion.natt and expansion.nrel

    def test_unconstrained_pairs_skipped_by_default(self):
        schema = Schema([
            ClassDef("A", attributes=[Attr("x", Card(0), "B")]),  # (0, ∞)
            ClassDef("B"),
        ])
        expansion = build_expansion(schema)
        assert expansion.compound_attributes["x"] == ()
        verbatim = build_expansion(schema, include_unconstrained=True)
        assert len(verbatim.compound_attributes["x"]) > 0

    def test_size_limit_guard(self):
        from repro.core.errors import ReasoningError

        classes = [ClassDef(f"C{i}") for i in range(12)]
        with pytest.raises(ReasoningError):
            build_expansion(Schema(classes), "naive", size_limit=100)

    def test_summary_mentions_counts(self):
        from repro.workloads.paper_schemas import figure2_schema

        text = build_expansion(figure2_schema()).summary()
        assert "compound classes" in text
        assert "Enrollment" in text


class TestBinaryDeduction:
    """The Krom-closure upgrade of the preselection tables (§4.3 /[Dal92])."""

    def schema(self):
        # B's isa has the two-literal clause (D or not C); A ⊑ B and A ⊑ C,
        # so the closure should resolve: A implies D.
        return parse_schema("""
            class A isa B and C endclass
            class B isa D or not C endclass
            class C endclass
            class D endclass
        """)

    def test_binary_resolution_derives_inclusion(self):
        tables = build_tables(self.schema(), deduction="binary")
        assert tables.includes("A", "D")

    def test_unit_level_misses_it(self):
        tables = build_tables(self.schema(), deduction="unit")
        assert not tables.includes("A", "D")

    def test_binary_refutation(self):
        schema = parse_schema("""
            class A isa B and C and not D endclass
            class B isa D or not C endclass
            class C endclass
            class D endclass
        """)
        tables = build_tables(schema, deduction="binary")
        assert "A" in tables.empty_classes
        assert tables.why_empty("A") is not None
        # And the reasoner agrees that A is genuinely unsatisfiable.
        from repro.reasoner.satisfiability import Reasoner

        assert not Reasoner(schema).is_satisfiable("A")

    def test_binary_disjointness(self):
        schema = parse_schema("""
            class A isa B endclass
            class B isa not D or not C endclass
            class E isa C and D endclass
            class C endclass
            class D endclass
        """)
        tables = build_tables(schema, deduction="binary")
        # E implies C and D; A implies (¬D ∨ ¬C): joint contradiction —
        # the pairwise clash check sees A's closure vs E's only through
        # resolved literals, so verify against the reasoner either way.
        from repro.reasoner.implication import implied_disjoint
        from repro.reasoner.satisfiability import Reasoner

        reasoner = Reasoner(schema)
        if tables.are_disjoint("A", "E"):
            assert implied_disjoint(reasoner, "A", "E")

    def test_bad_deduction_level_rejected(self):
        with pytest.raises(ValueError):
            build_tables(self.schema(), deduction="fancy")

    def test_implied_literals_exposed(self):
        from repro.core.formulas import Lit

        tables = build_tables(self.schema(), deduction="binary")
        literals = tables.implied_literals("A")
        assert Lit("A") in literals
        assert Lit("D") in literals
