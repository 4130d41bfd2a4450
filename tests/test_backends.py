"""The LP backend registry and the backend equivalence suite.

The maximal acceptable support of ``Ψ_S`` is unique (solutions of the
homogeneous system are closed under addition), so every sound backend must
compute the *same* support set — backends may only differ in witness values
and wall-clock.  The differential tests here pin ``"exact-sparse"``,
``"float-fallback"`` and the dense reference simplex of
:mod:`tests.dense_reference` to identical verdicts on seeded random
schemas and on hypothesis-generated rich schemas, and the capability tests
pin the registry API (described entries, names only, the §4.4 closed-form
path, the float path's exact safety net).
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.errors import LinearSystemError
from repro.engine import EngineConfig
from repro.expansion.expansion import build_expansion
from repro.linear import backends
from repro.linear.backends import (
    AutoBackend,
    BackendCapabilities,
    BackendDescription,
    FloatFallbackBackend,
    LpBackend,
    RoundSolution,
    SparseExactBackend,
    available_backends,
    backend_capabilities,
    bump_metric,
    describe_backend,
    get_backend,
    register_backend,
)
from repro.linear.support import acceptable_support
from repro.linear.system import build_system
from repro.obs.tracer import Tracer, use_tracer
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import (
    adversarial_schema,
    clustered_schema,
    hierarchy_schema,
    random_schema,
)
from repro.workloads.query_workloads import taxonomy_schema

from .dense_reference import DenseReference
from .lp_parity import SMALL_SCHEMAS
from .strategies import rich_schemas

#: Schemas whose every round reaches the simplex: an attribute and its
#: inverse put each compound attribute into two bound entries, which the
#: §4.4 construction refuses.  (cycle(4,2), the fourth, is left out: once
#: the LP empties every class, its last round is certified.)
LP_SCHEMAS = tuple(SMALL_SCHEMAS.values())[:3]


def lp_system(index: int = 0):
    """``Ψ_S`` of one of :data:`LP_SCHEMAS`."""
    return build_system(build_expansion(LP_SCHEMAS[index]()))


class TestRegistry:
    def test_builtin_backends_registered(self):
        entries = available_backends()
        assert all(isinstance(entry, BackendDescription) for entry in entries)
        names = [entry.name for entry in entries]
        assert names == ["auto", "exact-sparse", "float-fallback"]

    def test_described_entries_fold_aliases(self):
        backend = register_backend(DenseReference(), "test-dense")
        try:
            by_name = {entry.name: entry for entry in available_backends()}
            assert by_name["dense-reference"].aliases == ("test-dense",)
            assert "test-dense" not in by_name
            assert get_backend("test-dense") is backend
        finally:
            backends._REGISTRY.pop("dense-reference", None)
            backends._REGISTRY.pop("test-dense", None)

    def test_unknown_name_raises(self):
        with pytest.raises(LinearSystemError, match="unknown LP backend"):
            get_backend("bogus")

    def test_instances_satisfy_the_protocol(self):
        for name in ("exact-sparse", "float-fallback", "auto"):
            assert isinstance(get_backend(name), LpBackend)

    def test_backend_instance_passes_through(self):
        backend = DenseReference()
        assert get_backend(backend) is backend

    def test_non_backend_object_rejected(self):
        with pytest.raises(LinearSystemError, match="LpBackend protocol"):
            get_backend(object())

    def test_custom_backend_registration(self):
        class Tracing:
            name = "test-tracing"

            def __init__(self):
                self.calls = 0
                self._inner = DenseReference()

            def solve(self, system, positive_indices, *, merge_columns=True):
                self.calls += 1
                return self._inner.solve(system, positive_indices,
                                         merge_columns=merge_columns)

        tracing = register_backend(Tracing())
        try:
            schema = random_schema(5, seed=3)
            result = acceptable_support(build_expansion(schema),
                                        backend="test-tracing")
            assert tracing.calls >= 1
            reference = acceptable_support(build_expansion(schema),
                                           backend="exact-sparse")
            assert result.support == reference.support
        finally:
            backends._REGISTRY.pop("test-tracing", None)


class TestCapabilityContract:
    def test_builtin_capabilities(self):
        assert get_backend("exact-sparse").capabilities() == \
            BackendCapabilities(arithmetic="exact-rational", sparse=True,
                                closed_form=True,
                                degeneracy="bland-anticycling")
        assert get_backend("auto").capabilities().arithmetic == "hybrid"
        assert (get_backend("float-fallback").capabilities().degeneracy
                == "ambiguity-band-exact-fallback")

    def test_describe_matches_capabilities(self):
        for name in ("exact-sparse", "float-fallback", "auto"):
            backend = get_backend(name)
            description = backend.describe()
            assert description.name == name
            assert description.capabilities == backend.capabilities()
            assert description.summary

    def test_foreign_backend_gets_conservative_defaults(self):
        class Bare:
            name = "bare"

            def solve(self, system, positive_indices, *, merge_columns=True):
                raise NotImplementedError

        capabilities = backend_capabilities(Bare())
        assert not capabilities.closed_form
        assert not capabilities.sparse
        description = describe_backend(Bare())
        assert description.name == "bare"

    def test_description_round_trips_to_dict(self):
        entry = get_backend("auto").describe()
        as_dict = entry.as_dict()
        assert as_dict["name"] == "auto"
        assert as_dict["capabilities"]["closed_form"] is True
        assert set(as_dict) == {"name", "aliases", "summary", "capabilities"}


class TestParameterizedSpecs:
    """The retired ``name:key=value`` spec grammar: every such string is
    now an unknown name, rejected with a typed error rather than silently
    resolved to some default."""

    @staticmethod
    def assert_unknown(spec):
        with pytest.raises(LinearSystemError,
                           match="unknown LP backend .*; available: auto, "
                                 "exact-sparse, float-fallback$"):
            get_backend(spec)

    def test_auto_limit_spec(self):
        self.assert_unknown("auto:limit=5")

    def test_spec_validates_in_engine_config(self):
        with pytest.raises(LinearSystemError, match="unknown LP backend"):
            EngineConfig(lp_backend="auto:limit=500")

    def test_nonpositive_limit_rejected(self):
        self.assert_unknown("auto:limit=0")

    def test_unparameterized_backend_rejects_params(self):
        self.assert_unknown("exact-sparse:limit=5")

    def test_malformed_params_rejected(self):
        self.assert_unknown("auto:limit")

    def test_unknown_param_rejected(self):
        self.assert_unknown("auto:bogus=3")

    def test_unknown_name_with_params_rejected(self):
        self.assert_unknown("bogus:limit=5")


class TestMetricSchema:
    def test_bump_metric_rejects_undocumented_keys(self):
        with pytest.raises(LinearSystemError, match="unknown solver metric"):
            bump_metric({}, "lp.made_up")

    def test_bump_metric_accumulates(self):
        metrics = {}
        bump_metric(metrics, "lp.pivots", 3)
        bump_metric(metrics, "lp.pivots", 2)
        assert metrics == {"lp.pivots": 5}

    def test_solver_metrics_stay_on_schema(self):
        from repro.linear.backends import METRIC_KEYS

        system = build_system(build_expansion(random_schema(5, seed=4)))
        for backend in (DenseReference(), "exact-sparse", "float-fallback",
                        "auto"):
            solution = get_backend(backend).solve(
                system, list(range(system.n_unknowns())))
            assert set(solution.metrics) <= METRIC_KEYS


class TestRoundSolutions:
    def test_exact_solution_is_rational_and_acceptable(self):
        system = lp_system()
        solution = SparseExactBackend().solve(
            system, list(range(system.n_unknowns())))
        assert isinstance(solution, RoundSolution)
        assert all(isinstance(v, Fraction) for v in solution.values.values())
        assert solution.backend_used in ("exact-sparse", "propagation")

    def test_empty_candidates_need_no_lp(self):
        system = build_system(build_expansion(random_schema(4, seed=2)))
        for name in ("exact-sparse", "float-fallback", "auto"):
            solution = get_backend(name).solve(system, [])
            assert solution.supported == frozenset()
            assert solution.backend_used == "propagation"

    def test_degenerate_floats_fall_back(self):
        backend = FloatFallbackBackend()
        assert backend._degenerate([0.5, 5e-7])
        assert not backend._degenerate([0.5, 0.0, 1.0])
        assert not backend._degenerate([1e-12])  # snapped to zero, fine


class TestAutoRouting:
    """`auto` routes by LP column count, with the cutoff at the measured
    sparse/float crossover (`SPARSE_BACKEND_LIMIT`); tests needing another
    cutoff patch the constant."""

    def test_default_limit_is_the_measured_crossover(self):
        assert backends.SPARSE_BACKEND_LIMIT == 400
        assert "up to 400 LP columns" in AutoBackend().describe().summary

    def test_routes_small_systems_to_the_sparse_core(self, monkeypatch):
        monkeypatch.setattr(backends, "SPARSE_BACKEND_LIMIT", 10 ** 6)
        system = lp_system()
        solution = AutoBackend().solve(
            system, list(range(system.n_unknowns())))
        assert solution.backend_used == "exact-sparse"
        assert solution.metrics.get("lp.sparse_solves", 0) == 1

    def test_routes_large_systems_to_the_float_core(self, monkeypatch):
        monkeypatch.setattr(backends, "SPARSE_BACKEND_LIMIT", 1)
        system = lp_system()
        solution = AutoBackend().solve(
            system, list(range(system.n_unknowns())))
        # "float" when HiGHS answered, "exact-sparse" via the float path's
        # exact safety net — either way the float path ran first.
        assert solution.backend_used in ("float", "exact-sparse")
        assert ("lp.float_solves" in solution.metrics
                or "lp.float_exact_fallbacks" in solution.metrics)

    def test_routing_preserves_verdicts(self, monkeypatch):
        expansion = build_expansion(LP_SCHEMAS[1]())
        supports = set()
        for limit in (1, 10 ** 6):
            monkeypatch.setattr(backends, "SPARSE_BACKEND_LIMIT", limit)
            supports.add(acceptable_support(expansion, backend="auto").support)
        assert len(supports) == 1


class TestFloatFallbackWithoutHighs:
    """With HiGHS unavailable (no SciPy), the float path's exact safety net
    answers every round on the sparse core."""

    @pytest.fixture(autouse=True)
    def no_highs(self, monkeypatch):
        monkeypatch.setattr(backends, "solve_float_groups",
                            lambda groups, rows: None)
        # Route `auto` to the float path even on small systems.
        monkeypatch.setattr(backends, "SPARSE_BACKEND_LIMIT", 1)

    @pytest.mark.parametrize("name", ("float-fallback", "auto"))
    def test_round_answers_on_the_sparse_core(self, name):
        system = lp_system(1)
        active = list(range(system.n_unknowns()))
        solution = get_backend(name).solve(system, active)
        assert solution.backend_used == "exact-sparse"
        assert solution.metrics["lp.float_exact_fallbacks"] == 1
        assert solution.metrics["lp.sparse_solves"] == 1
        assert "lp.float_solves" not in solution.metrics
        sparse = SparseExactBackend().solve(system, active)
        assert solution.supported == sparse.supported

    @pytest.mark.parametrize("name", ("float-fallback", "auto"))
    @pytest.mark.parametrize("case", range(3))
    def test_support_matches_the_sparse_backend(self, name, case):
        system = lp_system(case)
        result = acceptable_support(system, backend=name)
        assert result.support == acceptable_support(
            system, backend="exact-sparse").support
        assert result.backend_used in ("exact-sparse", "propagation")


class TestBackendEquivalence:
    """Every sound backend must agree on every schema — Theorem 3.3's
    verdicts cannot depend on the arithmetic core."""

    SEEDS = range(8)
    BACKENDS = (DenseReference(), "exact-sparse", "float-fallback")

    def support_sets(self, schema):
        expansion = build_expansion(schema)
        return [acceptable_support(expansion, backend=name)
                for name in self.BACKENDS]

    def assert_agree(self, results):
        assert len({result.support for result in results}) == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_schemas(self, seed):
        self.assert_agree(self.support_sets(random_schema(6, seed=seed)))

    @pytest.mark.parametrize("seed", range(4))
    def test_clustered_schemas(self, seed):
        self.assert_agree(self.support_sets(clustered_schema(3, 3, seed=seed)))

    def test_hierarchy_schema(self):
        self.assert_agree(self.support_sets(hierarchy_schema(3, 2)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reasoner_verdicts_per_backend(self, seed):
        schema = random_schema(6, seed=seed)
        verdicts = {}
        for backend in (DenseReference(), "exact-sparse", "float-fallback",
                        "auto"):
            reasoner = Reasoner(
                schema, config=EngineConfig(lp_backend=backend))
            verdicts[backend] = tuple(reasoner.satisfiable_classes())
        assert len(set(verdicts.values())) == 1, verdicts

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schema=rich_schemas())
    def test_rich_schemas_property(self, schema):
        self.assert_agree(self.support_sets(schema))

    @pytest.mark.parametrize("seed", range(4))
    def test_witnesses_verify_exactly(self, seed):
        """Every backend's witness must satisfy every disequation."""
        system = build_system(build_expansion(random_schema(6, seed=seed)))
        for backend in self.BACKENDS:
            result = acceptable_support(system, backend=backend)
            for constraint in system.constraints:
                total = sum(
                    (coeff * result.solution[var]
                     for var, coeff in constraint.coefficients),
                    Fraction(0))
                assert total <= 0


class TestStrategyBackendSweep:
    """Sparse vs the dense reference across enumeration strategies: the Phase-1
    strategy decides *which* compound classes exist, the backend decides the
    arithmetic — verdicts must be invariant in both dimensions."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("strategy", ("naive", "strategic", "auto"))
    def test_random_verdicts_invariant(self, seed, strategy):
        schema = random_schema(5, seed=seed)
        verdicts = []
        for backend in (DenseReference(), "exact-sparse"):
            reasoner = Reasoner(schema, config=EngineConfig(
                strategy=strategy, lp_backend=backend))
            verdicts.append(tuple(reasoner.satisfiable_classes()))
        assert verdicts[0] == verdicts[1]

    @pytest.mark.parametrize("strategy", ("naive", "strategic", "auto"))
    def test_hierarchy_verdicts_invariant(self, strategy):
        schema = hierarchy_schema(2, 3, with_attributes=True, seed=3)
        verdicts = {}
        for backend in (DenseReference(), "exact-sparse", "auto"):
            reasoner = Reasoner(schema, config=EngineConfig(
                strategy=strategy, lp_backend=backend))
            verdicts[backend] = tuple(reasoner.satisfiable_classes())
        assert len(set(verdicts.values())) == 1, verdicts

    @pytest.mark.parametrize("schema", (
        pytest.param(lambda: adversarial_schema(6, seed=1), id="adversarial"),
        pytest.param(lambda: adversarial_schema(7, seed=2), id="adversarial7"),
        pytest.param(lambda: clustered_schema(4, 3, seed=0), id="clustered0"),
        pytest.param(lambda: clustered_schema(4, 3, seed=3), id="clustered3"),
        pytest.param(lambda: taxonomy_schema(3, 1), id="taxonomy"),
    ))
    def test_certified_families_match_the_pure_lp(self, schema):
        """Families that are no §4.4 hierarchy, yet whose systems the
        certificate answers: the exact backends take zero pivots, and the
        dense reference — pure LP — finds the same satisfiable classes."""
        schema = schema()
        verdicts = {}
        for backend in (DenseReference(), "exact-sparse", "auto"):
            tracer = Tracer()
            with use_tracer(tracer):
                reasoner = Reasoner(schema, config=EngineConfig(
                    lp_backend=backend))
                verdicts[backend] = tuple(reasoner.satisfiable_classes())
            if isinstance(backend, str):
                assert reasoner.expansion.strategy == "strategic"
                assert tracer.counter("lp.hierarchy_closed_form") >= 1
                assert tracer.counter("lp.pivots") == 0
        assert len(set(verdicts.values())) == 1, verdicts


class TestClosedForm:
    """The §4.4 short-circuit: the exact backends try the certificate on
    every round, answer a certified round without a single simplex pivot,
    and never change a verdict."""

    def test_hierarchy_flag_takes_closed_form(self):
        """No flag needed: the default path certifies a hierarchy."""
        system = build_system(build_expansion(
            hierarchy_schema(3, 3, with_attributes=True, seed=1)))
        tracer = Tracer()
        with use_tracer(tracer):
            certified = acceptable_support(system, backend="exact-sparse")
        plain = acceptable_support(system, backend=DenseReference())
        assert certified.support == plain.support
        assert certified.backend_used == "closed-form"
        assert tracer.counter("lp.pivots") == 0

    def test_closed_form_pivots_are_zero(self):
        system = build_system(build_expansion(
            hierarchy_schema(2, 3, with_attributes=True, seed=5)))
        for backend in (SparseExactBackend(), AutoBackend()):
            solution = backend.solve(
                system, list(range(system.n_unknowns())))
            assert solution.backend_used == "closed-form"
            assert solution.metrics == {"lp.hierarchy_closed_form": 1}
            assert "lp.pivots" not in solution.metrics

    def test_naive_strategy_takes_the_certificate(self):
        """The certificate does not depend on how Phase 1 enumerated: a
        hierarchy expanded by the naive strategy needs no pivot either."""
        schema = hierarchy_schema(2, 3, with_attributes=True, seed=1)
        tracer = Tracer()
        with use_tracer(tracer):
            reasoner = Reasoner(schema, config=EngineConfig(strategy="naive"))
            verdicts = reasoner.satisfiable_classes()
        assert reasoner.expansion.strategy == "naive"
        assert len(verdicts) == len(schema.class_symbols)
        assert tracer.counter("lp.hierarchy_closed_form") >= 1
        assert tracer.counter("lp.pivots") == 0

    def test_closed_form_witness_verifies_exactly(self):
        system = build_system(build_expansion(
            hierarchy_schema(3, 2, with_attributes=True, seed=7)))
        result = acceptable_support(system, backend="exact-sparse")
        assert result.backend_used == "closed-form"
        for constraint in system.constraints:
            total = sum((coeff * result.solution[var]
                         for var, coeff in constraint.coefficients),
                        Fraction(0))
            assert total <= 0
        for index in result.support:
            assert result.solution[index] > 0

    def test_flag_on_non_hierarchy_is_harmless(self):
        """A system the construction does not fit fails the construct-and-
        verify attempt and silently takes the ordinary LP."""
        system = lp_system(2)
        tracer = Tracer()
        with use_tracer(tracer):
            tried = acceptable_support(system, backend="exact-sparse")
        plain = acceptable_support(system, backend=DenseReference())
        assert tried.support == plain.support
        assert tried.backend_used == "exact-sparse"
        assert tracer.counter("lp.hierarchy_closed_form") == 0
        assert tracer.counter("lp.pivots") > 0

    def test_foreign_backends_run_their_own_lp(self):
        """A backend without the capability contract is called on every
        round of a hierarchy system too, and agrees with the certificate
        on the support."""

        class Strict:
            name = "test-strict"

            def __init__(self):
                self._inner = DenseReference()
                self.calls = 0

            def solve(self, system, positive_indices, *, merge_columns=True):
                self.calls += 1
                return self._inner.solve(system, positive_indices,
                                         merge_columns=merge_columns)

        strict = register_backend(Strict())
        try:
            system = build_system(build_expansion(
                hierarchy_schema(2, 2, with_attributes=True, seed=0)))
            result = acceptable_support(system, backend="test-strict")
            certified = acceptable_support(system, backend="exact-sparse")
            assert strict.calls == result.rounds >= 1
            assert result.backend_used == "dense-reference"
            assert certified.backend_used == "closed-form"
            assert result.support == certified.support
        finally:
            backends._REGISTRY.pop("test-strict", None)

    def test_integer_check_rejects_a_violation_below_one(self):
        """The §4.4 check runs on the witness scaled to integers, so a row
        the witness violates by a fraction of one object still fails.
        ``A`` has one ``a``-filler entry with two live summands and one
        ``b``-filler entry with three, both of mass 1: the witness gives
        them 1/2 and 1/3, and ``x_a - x_b ≤ 0`` fails by 1/6."""
        from repro.core.cardinality import Card
        from repro.core.formulas import Clause, Formula, Lit
        from repro.core.schema import Attr, ClassDef, Schema
        from repro.linear.sparse import hierarchy_witness
        from repro.linear.system import Constraint, PsiSystem, bound_entries

        def isa(*lits):
            return Formula(tuple(Clause((lit,)) for lit in lits))

        schema = Schema([
            ClassDef("T"),
            ClassDef("A", isa(Lit("T"), ~Lit("F"), ~Lit("H")),
                     [Attr("a", Card(1, 1), "F"), Attr("b", Card(1, 1), "H")]),
            ClassDef("F", isa(Lit("T"), ~Lit("H"))),
            ClassDef("G", isa(Lit("F"))),
            ClassDef("H", isa(Lit("T"))),
            ClassDef("H1", isa(Lit("H"), ~Lit("H2"))),
            ClassDef("H2", isa(Lit("H"))),
        ])
        expansion = build_expansion(schema)
        system = build_system(expansion)
        everything = list(range(system.n_unknowns()))
        assert hierarchy_witness(system, everything) is not None
        by_size = {len(summands): (summands, card)
                   for _, summands, card, _ in bound_entries(system)}
        assert sorted(by_size) == [2, 3]
        (a_summands, a_card), (b_summands, b_card) = by_size[2], by_size[3]
        assert a_card == b_card == Card(1, 1)
        extra = Constraint(((a_summands[0], 1), (b_summands[0], -1)),
                           "x_a - x_b <= 0")

        class WithExtraRow(PsiSystem):
            @property
            def constraints(self):
                return super().constraints + (extra,)

        violated = WithExtraRow(expansion)
        assert hierarchy_witness(violated, everything) is None
        tried = acceptable_support(violated, backend="exact-sparse")
        plain = acceptable_support(violated, backend=DenseReference())
        assert tried.backend_used == "exact-sparse"
        assert tried.support == plain.support
        assert len(plain.support) == system.n_unknowns()
