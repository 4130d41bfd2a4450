"""Unit tests for flows, bipartite realization, and model synthesis."""

import pytest

from repro.core.cardinality import ANY, Card
from fractions import Fraction

from repro.core.errors import SynthesisError
from repro.core.formulas import Lit
from repro.core.schema import Attr, ClassDef, Part, RelationDef, RoleClause, RoleLiteral, Schema, inv
from repro.linear import support as support_module
from repro.parser.parser import parse_schema
from repro.reasoner.satisfiability import Reasoner
from repro.semantics.checker import is_model
from repro.synthesis.bipartite import realize_bipartite
from repro.synthesis.builder import synthesize_model
from repro.synthesis.flows import FlowNetwork, feasible_flow_with_lower_bounds
from repro.workloads.paper_schemas import figure2_schema

from . import dense_reference
from .lp_parity import SMALL_SCHEMAS


class TestMaxFlow:
    def test_single_edge(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 7)
        assert network.max_flow(0, 1) == 7

    def test_bottleneck(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 10)
        network.add_edge(1, 2, 4)
        assert network.max_flow(0, 2) == 4

    def test_parallel_paths(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 3)
        network.add_edge(1, 3, 3)
        network.add_edge(0, 2, 5)
        network.add_edge(2, 3, 2)
        assert network.max_flow(0, 3) == 5

    def test_residual_rerouting(self):
        # The classic case where a naive greedy needs the residual edge.
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1)
        network.add_edge(0, 2, 1)
        network.add_edge(1, 2, 1)
        network.add_edge(1, 3, 1)
        network.add_edge(2, 3, 1)
        assert network.max_flow(0, 3) == 2

    def test_same_source_sink_rejected(self):
        with pytest.raises(SynthesisError):
            FlowNetwork(2).max_flow(1, 1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(SynthesisError):
            FlowNetwork(2).add_edge(0, 1, -1)


class TestLowerBoundedFlow:
    def test_forced_lower_bound(self):
        # Circulation 0 → 1 → 0 with lower bound 2 on the forward edge.
        flows = feasible_flow_with_lower_bounds(2, [
            (0, 1, 2, 5),
            (1, 0, 0, None),
        ])
        assert flows is not None
        assert flows[0] >= 2
        assert flows[0] == flows[1]

    def test_infeasible_bounds(self):
        # Edge demands 3 units but the return path caps at 1.
        flows = feasible_flow_with_lower_bounds(2, [
            (0, 1, 3, 5),
            (1, 0, 0, 1),
        ])
        assert flows is None

    def test_contradictory_interval(self):
        assert feasible_flow_with_lower_bounds(2, [(0, 1, 5, 3)]) is None


class TestBipartiteRealization:
    def test_perfect_matching(self):
        result = realize_bipartite(
            ["a", "b"], ["x", "y"],
            lambda o: Card(1, 1), lambda o: Card(1, 1),
            lambda s, t: True)
        assert result is not None
        assert len(result) == 2
        assert len({s for s, _ in result}) == 2
        assert len({t for _, t in result}) == 2

    def test_respects_allowed(self):
        result = realize_bipartite(
            ["a"], ["x", "y"],
            lambda o: Card(1, 1), lambda o: ANY,
            lambda s, t: t == "y")
        assert result == {("a", "y")}

    def test_infeasible_degree(self):
        # One left object must emit 2 links but only one target is allowed.
        result = realize_bipartite(
            ["a"], ["x"],
            lambda o: Card(2, 2), lambda o: ANY,
            lambda s, t: True)
        assert result is None

    def test_unbalanced_ratio(self):
        # 2 sources each emitting exactly 1; 1 target absorbing exactly 2.
        result = realize_bipartite(
            ["a", "b"], ["x"],
            lambda o: Card(1, 1), lambda o: Card(2, 2),
            lambda s, t: True)
        assert result == {("a", "x"), ("b", "x")}


class TestSynthesizeModel:
    def check(self, schema: Schema, target: str):
        reasoner = Reasoner(schema)
        report = synthesize_model(reasoner, target=target)
        assert is_model(report.interpretation, schema)
        assert report.interpretation.class_ext(target)
        return report

    def test_plain_hierarchy(self):
        self.check(parse_schema("""
            class Person endclass
            class Student isa Person and not Professor endclass
            class Professor isa Person endclass
        """), "Student")

    def test_mandatory_attribute(self):
        self.check(Schema([
            ClassDef("C", attributes=[Attr("a", Card(1, 2), "D")]),
            ClassDef("D"),
        ]), "C")

    def test_inverse_ratio(self):
        # |C| = 5 |D| in every model: synthesis must scale blocks.
        report = self.check(Schema([
            ClassDef("C", isa=~Lit("D"),
                     attributes=[Attr("a", Card(1, 1), "D")]),
            ClassDef("D", attributes=[Attr(inv("a"), Card(5, 5), "C")]),
        ]), "D")
        interp = report.interpretation
        assert len(interp.class_ext("C")) == 5 * len(interp.class_ext("D"))

    def test_binary_relation(self):
        schema = Schema(
            [ClassDef("C", isa=~Lit("D"),
                      participates=[Part("R", "u", Card(2, 2))]),
             ClassDef("D", isa=~Lit("C"),
                      participates=[Part("R", "v", Card(1, 1))])],
            [RelationDef("R", ("u", "v"), [
                RoleClause(RoleLiteral("u", "C")),
                RoleClause(RoleLiteral("v", "D")),
            ])])
        report = self.check(schema, "C")
        interp = report.interpretation
        assert len(interp.relation_ext("R")) == 2 * len(interp.class_ext("C"))

    def test_ternary_relation(self):
        schema = Schema(
            [ClassDef("A", participates=[Part("R", "x", Card(1, 2))]),
             ClassDef("B"), ClassDef("C")],
            [RelationDef("R", ("x", "y", "z"), [
                RoleClause(RoleLiteral("y", "B")),
                RoleClause(RoleLiteral("z", "C")),
            ])])
        self.check(schema, "A")

    def test_unsatisfiable_target_raises(self):
        schema = parse_schema("class Bad isa Good and not Good endclass")
        with pytest.raises(SynthesisError):
            synthesize_model(Reasoner(schema), target="Bad")

    def test_empty_schema_gives_tiny_model(self):
        report = synthesize_model(Reasoner(Schema([ClassDef("A")])), target="A")
        assert report.n_objects >= 1

    def test_max_objects_guard(self):
        from repro.workloads.generators import cardinality_chain_schema

        schema = cardinality_chain_schema(4, fan_out=4)  # needs 4^4 L4 objects
        with pytest.raises(SynthesisError):
            synthesize_model(Reasoner(schema), target="L0", max_objects=10)

    def test_cardinality_chain(self):
        from repro.workloads.generators import cardinality_chain_schema

        schema = cardinality_chain_schema(2, fan_out=2)
        report = self.check(schema, "L0")
        interp = report.interpretation
        assert len(interp.class_ext("L1")) == 2 * len(interp.class_ext("L0"))
        assert len(interp.class_ext("L2")) == 4 * len(interp.class_ext("L0"))


@pytest.mark.slow
class TestFigure2Synthesis:
    def test_figure2_end_to_end(self):
        from repro.workloads.paper_schemas import figure2_schema

        reasoner = Reasoner(figure2_schema())
        report = synthesize_model(reasoner, target="Grad_Student")
        interp = report.interpretation
        assert is_model(interp, figure2_schema())
        assert interp.class_ext("Grad_Student")
        # Every course enrolls between 5 and 100 students (Figure 2).
        for course in interp.class_ext("Course"):
            count = interp.participation_count("Enrollment", "enrolled_in", course)
            assert 5 <= count <= 100


class TestMinimizedWitnessParity:
    """Witness minimization (lower bounds ``x ≥ 1``: the feasibility phase)
    on its exact path, HiGHS switched off: the sparse core and the dense
    reference reach the same optimal total mass, and the sparse witness
    verifies."""

    @pytest.fixture(autouse=True)
    def exact_path_only(self, monkeypatch):
        monkeypatch.setattr(support_module, "highs_solve",
                            lambda costs, rows, rhs, bounds: None)

    @staticmethod
    def minimized(schema):
        result = Reasoner(schema).support
        return result, support_module.minimize_witness(result)

    @staticmethod
    def assert_verifies(result, witness):
        for constraint in result.system.constraints:
            assert sum((coeff * witness[var]
                        for var, coeff in constraint.coefficients),
                       Fraction(0)) <= 0
        for index in result.support:
            if isinstance(result.system.unknowns[index], frozenset):
                assert witness[index] >= 1

    @pytest.mark.parametrize("name", sorted(SMALL_SCHEMAS))
    def test_small_schemas(self, name, monkeypatch):
        result, sparse = self.minimized(SMALL_SCHEMAS[name]())
        monkeypatch.setattr(support_module, "solve_sparse_lp",
                            dense_reference.solve_sparse_lp)
        dense = support_module.minimize_witness(result)
        assert sum(sparse.values()) == sum(dense.values())
        self.assert_verifies(result, sparse)

    def test_figure2(self):
        # 450 LP column groups.  The dense reference takes about 50 s
        # here; its optimum, measured once, is the pinned total mass of
        # 262.
        result, sparse = self.minimized(figure2_schema())
        assert sum(sparse.values()) == 262
        self.assert_verifies(result, sparse)
