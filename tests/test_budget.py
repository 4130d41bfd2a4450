"""The cooperative budget: deadlines, step bounds, and the hot loops.

Covers the :mod:`repro.core.budget` primitives themselves and — the part
that actually matters — that each reasoning hot loop (DPLL enumeration,
compound-candidate probing, simplex pivoting) observes the ambient budget
and dies with :class:`~repro.core.errors.BudgetExceeded` under a tiny
step bound or an already-expired deadline.
"""

import time

import pytest

from repro.core.budget import (
    NULL_BUDGET,
    Budget,
    NullBudget,
    current_budget,
    use_budget,
)
from repro.core.errors import BudgetExceeded, CarError
from repro.engine import EngineConfig
from repro.expansion.enumerate import (
    dpll_compound_classes,
    naive_compound_classes,
)
from repro.expansion.expansion import build_expansion
from repro.linear import solve_lp
from repro.parser.parser import parse_schema
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import clustered_schema, wide_attribute_schema


class TestBudgetPrimitives:
    def test_step_budget_trips_after_max_steps(self):
        budget = Budget(max_steps=3)
        budget.tick()
        budget.tick()
        budget.tick()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.tick()
        assert excinfo.value.exit_code == 75
        assert excinfo.value.steps == 4

    def test_deadline_trips_on_monotonic_clock(self):
        budget = Budget(deadline=0.01)
        time.sleep(0.02)
        with pytest.raises(BudgetExceeded):
            budget.tick()

    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        for _ in range(10_000):
            budget.tick()
        assert budget.steps == 10_000

    def test_check_does_not_charge_a_step(self):
        budget = Budget(max_steps=1)
        budget.check()
        budget.check()
        assert budget.steps == 0

    def test_remaining_accessors(self):
        budget = Budget(deadline=60.0, max_steps=10)
        budget.tick(4)
        assert budget.remaining_steps() == 6
        assert 0 < budget.remaining_seconds() <= 60.0
        assert Budget().remaining_steps() is None
        assert Budget().remaining_seconds() is None

    def test_nonpositive_limits_rejected(self):
        with pytest.raises(CarError):
            Budget(deadline=0)
        with pytest.raises(CarError):
            Budget(max_steps=-1)

    def test_budget_exceeded_is_car_error(self):
        assert issubclass(BudgetExceeded, CarError)

    def test_null_budget_is_inert_singleton(self):
        assert isinstance(NULL_BUDGET, NullBudget)
        assert not NULL_BUDGET.enabled
        NULL_BUDGET.tick()
        NULL_BUDGET.tick(100)
        NULL_BUDGET.check()
        assert NULL_BUDGET.steps == 0


class TestAmbientBudget:
    def test_default_is_null_budget(self):
        assert current_budget() is NULL_BUDGET

    def test_use_budget_installs_and_restores(self):
        budget = Budget(max_steps=100)
        with use_budget(budget):
            assert current_budget() is budget
        assert current_budget() is NULL_BUDGET

    def test_use_budget_none_installs_null(self):
        with use_budget(Budget(max_steps=5)):
            with use_budget(None):
                assert current_budget() is NULL_BUDGET

    def test_restored_even_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_budget(Budget(max_steps=5)):
                raise RuntimeError("boom")
        assert current_budget() is NULL_BUDGET


#: Enough structure to force real work in every stage.
CLUSTERED = clustered_schema(3, 5, seed=2)


class TestHotLoopsHonorBudget:
    def test_naive_enumeration_trips_step_budget(self):
        with use_budget(Budget(max_steps=10)):
            with pytest.raises(BudgetExceeded):
                naive_compound_classes(CLUSTERED)

    def test_dpll_enumeration_trips_step_budget(self):
        universe = sorted(CLUSTERED.class_symbols)
        with use_budget(Budget(max_steps=5)):
            with pytest.raises(BudgetExceeded):
                dpll_compound_classes(CLUSTERED, universe)

    def test_candidate_probing_trips_step_budget(self):
        schema = wide_attribute_schema(20)
        with use_budget(Budget(max_steps=25)):
            with pytest.raises(BudgetExceeded):
                build_expansion(schema)

    def test_simplex_trips_step_budget(self):
        # A 6-variable LP needing several pivots.
        n = 6
        c = [1] * n
        a_ub = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        b_ub = [10] * n
        with use_budget(Budget(max_steps=2)):
            with pytest.raises(BudgetExceeded):
                solve_lp(c, a_ub, b_ub)

    def test_expired_deadline_trips_every_loop(self):
        budget = Budget(deadline=0.001)
        time.sleep(0.005)
        with use_budget(budget):
            with pytest.raises(BudgetExceeded):
                dpll_compound_classes(CLUSTERED,
                                      sorted(CLUSTERED.class_symbols))

    def test_reasoner_end_to_end_respects_budget(self):
        reasoner = Reasoner(clustered_schema(3, 5, seed=4),
                            config=EngineConfig(strategy="strategic"))
        with use_budget(Budget(max_steps=20)):
            with pytest.raises(BudgetExceeded):
                reasoner.check_coherence()

    def test_generous_budget_changes_nothing(self):
        schema = parse_schema("""
            class A isa not B endclass
            class B endclass
        """)
        bare = Reasoner(schema).check_coherence().is_coherent
        with use_budget(Budget(deadline=60.0, max_steps=10_000_000)):
            budgeted = Reasoner(schema).check_coherence().is_coherent
        assert bare == budgeted

    def test_budget_abort_leaves_pipeline_retryable(self):
        # A tripped budget mid-build must not poison the lazy pipeline:
        # the failed stage is simply rebuilt on the next query.
        reasoner = Reasoner(clustered_schema(3, 4, seed=6))
        with use_budget(Budget(max_steps=10)):
            with pytest.raises(BudgetExceeded):
                reasoner.check_coherence()
        assert reasoner.check_coherence().is_coherent in (True, False)
