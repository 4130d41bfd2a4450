"""The batch executor: typed outcomes, sharding, pools, failure isolation.

The equivalence suite at the bottom runs the same generated workloads
through the serial, thread, and process paths and demands identical
verdicts — the executor is a scheduler, never an oracle.
"""

import pickle

import pytest

from repro.core.errors import BudgetExceeded, CarError, ParseError
from repro.core.formulas import Formula
from repro.engine import (
    BatchExecutor,
    BatchQuery,
    EngineConfig,
    QueryError,
    QueryOutcome,
    SchemaSession,
    schema_fingerprint,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.parser.printer import render_schema
from repro.workloads.generators import (
    clustered_schema,
    hierarchy_schema,
    random_schema,
)

GOOD = "class A isa not B endclass class B endclass"
CONTRADICTION = "class C isa not C endclass"


class TestBatchQuery:
    def test_coerce_pair(self):
        query = BatchQuery.coerce((GOOD, "A"))
        assert query.schema == GOOD
        assert isinstance(query.formula, Formula)

    def test_coerce_dict_parses_formula_syntax(self):
        query = BatchQuery.coerce({"schema": GOOD,
                                   "formula": "A and not B"})
        assert isinstance(query.formula, Formula)

    def test_coerce_passthrough(self):
        query = BatchQuery.coerce((GOOD, "A"))
        assert BatchQuery.coerce(query) is query

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ParseError):
            BatchQuery.coerce("just a string")
        with pytest.raises(ParseError):
            BatchQuery.coerce({"formula": "A"})
        with pytest.raises(ParseError):
            BatchQuery.coerce({"schema": GOOD})
        with pytest.raises(ParseError):
            BatchQuery.coerce({"schema": 42, "formula": "A"})


class TestQueryOutcome:
    def test_ok_outcome(self):
        outcome = QueryOutcome(0, True, duration=0.5)
        assert outcome.ok and not outcome.timed_out
        assert outcome.require() is True

    def test_require_reraises_typed_error(self):
        error = QueryError("BudgetExceeded", "deadline", 75, steps=7)
        outcome = QueryOutcome(0, None, error)
        assert outcome.timed_out
        with pytest.raises(BudgetExceeded) as excinfo:
            outcome.require()
        assert excinfo.value.exit_code == 75
        assert excinfo.value.steps == 7

    def test_require_unknown_kind_falls_back_to_car_error(self):
        error = QueryError("ZeroDivisionError", "boom", 70)
        with pytest.raises(CarError, match="ZeroDivisionError"):
            QueryOutcome(0, None, error).require()

    def test_outcomes_pickle(self):
        error = QueryError("ParseError", "bad", 65)
        outcome = QueryOutcome(3, None, error, 0.1, 9, None, "ff")
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone == outcome

    def test_to_json_shape(self):
        payload = QueryOutcome(1, False, duration=0.25).to_json()
        assert payload["index"] == 1
        assert payload["verdict"] is False
        assert payload["error"] is None
        assert payload["timed_out"] is False


class TestBatchExecutorSerial:
    def test_outcomes_in_input_order(self):
        with BatchExecutor() as executor:
            outcomes = executor.run([(GOOD, "A"), (GOOD, "B"),
                                     (CONTRADICTION, "C")])
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.verdict for o in outcomes] == [True, True, False]

    def test_shards_share_fingerprint(self):
        with BatchExecutor() as executor:
            outcomes = executor.run([(GOOD, "A"), (GOOD, "B")])
        assert outcomes[0].schema_fingerprint == \
            outcomes[1].schema_fingerprint == schema_fingerprint(GOOD)

    def test_bad_schema_isolated(self):
        with BatchExecutor() as executor:
            outcomes = executor.run([("class ((", "A"), (GOOD, "A")])
        assert not outcomes[0].ok
        assert outcomes[0].error.kind == "ParseError"
        assert outcomes[1].ok and outcomes[1].verdict is True

    def test_bad_query_shape_isolated(self):
        with BatchExecutor() as executor:
            outcomes = executor.run(["nonsense", (GOOD, "A")])
        assert outcomes[0].error.kind == "ParseError"
        assert outcomes[1].ok

    def test_unknown_formula_symbol_isolated(self):
        with BatchExecutor() as executor:
            outcomes = executor.run([(GOOD, "NoSuchClass"), (GOOD, "A")])
        assert outcomes[0].error.kind == "ReasoningError"
        assert outcomes[0].error.exit_code == 64
        assert outcomes[1].ok

    def test_step_budget_yields_timed_out_outcome(self):
        schema = render_schema(clustered_schema(3, 4, seed=1))
        name = sorted(clustered_schema(3, 4, seed=1).class_symbols)[0]
        with BatchExecutor(max_steps=5) as executor:
            outcomes = executor.run([(schema, name)])
        assert outcomes[0].timed_out
        assert outcomes[0].error.exit_code == 75
        assert outcomes[0].steps > 0

    def test_stats_attached_on_success(self):
        with BatchExecutor() as executor:
            outcome = executor.run([(GOOD, "A")])[0]
        assert outcome.stats is not None
        assert outcome.stats.classes == 2

    def test_collect_stats_off(self):
        with BatchExecutor() as executor:
            outcome = executor.run([(GOOD, "A")], collect_stats=False)[0]
        assert outcome.stats is None

    def test_bad_mode_and_jobs_rejected(self):
        with pytest.raises(CarError):
            BatchExecutor(mode="bogus")
        with pytest.raises(CarError):
            BatchExecutor(jobs=0)

    def test_executor_counters(self):
        tracer = Tracer()
        with BatchExecutor() as executor, use_tracer(tracer):
            executor.run([(GOOD, "A"), (GOOD, "B"), (CONTRADICTION, "C"),
                          ("class ((", "A")])
        assert tracer.counters["executor.tasks_dispatched"] == 4
        assert tracer.counters["executor.shards"] == 2
        assert tracer.counters["executor.tasks_completed"] == 3
        assert tracer.counters["executor.tasks_failed"] == 1
        assert tracer.counters.get("executor.tasks_timed_out", 0) == 0


class TestBatchExecutorPools:
    def test_process_pool_answers(self):
        with BatchExecutor(jobs=2, mode="process") as executor:
            outcomes = executor.run([(GOOD, "A"), (CONTRADICTION, "C")])
            assert executor.pool_kind == "process"
        assert [o.verdict for o in outcomes] == [True, False]

    def test_thread_pool_answers(self):
        with BatchExecutor(jobs=2, mode="thread") as executor:
            outcomes = executor.run([(GOOD, "A"), (CONTRADICTION, "C")])
            assert executor.pool_kind == "thread"
        assert [o.verdict for o in outcomes] == [True, False]

    def test_pool_reused_across_runs(self):
        tracer = Tracer()
        with BatchExecutor(jobs=2, mode="process") as executor, \
                use_tracer(tracer):
            executor.run([(GOOD, "A")])
            executor.run([(GOOD, "B")])
        assert tracer.counters["executor.pool_reuse"] == 1

    def test_process_timeout_isolated_from_batch(self):
        # The deadline governs the hard query inside its worker; the easy
        # one still comes back answered.
        from repro.reductions import machine_to_schema, parity_machine

        reduction = machine_to_schema(parity_machine(), (0, 1, 0, 1), 6, 6)
        hard = (render_schema(reduction.schema), str(reduction.target))
        with BatchExecutor(jobs=2, mode="process") as executor:
            outcomes = executor.run([hard, (GOOD, "A")], deadline=0.05)
        assert outcomes[0].timed_out
        assert outcomes[1].ok and outcomes[1].verdict is True


def _workload_queries():
    """(schema source, class symbol) pairs over the workload generators."""
    queries = []
    for schema in (clustered_schema(3, 3, seed=3),
                   hierarchy_schema(2, 3, seed=5),
                   random_schema(6, seed=7)):
        names = sorted(schema.class_symbols)
        source = render_schema(schema)
        for name in names[:3]:
            queries.append((source, name))
    return queries


class TestPoolEquivalence:
    """Process pool, thread pool, and serial must agree everywhere."""

    @pytest.fixture(scope="class")
    def workload(self):
        return _workload_queries()

    @pytest.fixture(scope="class")
    def serial_outcomes(self, workload):
        with BatchExecutor(mode="serial") as executor:
            return executor.run(workload)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_pool_matches_serial(self, workload, serial_outcomes, mode):
        with BatchExecutor(jobs=2, mode=mode) as executor:
            outcomes = executor.run(workload)
        assert [o.verdict for o in outcomes] == \
            [o.verdict for o in serial_outcomes]
        assert all(o.ok for o in outcomes)

    def test_strategies_agree_through_executor(self, workload):
        verdicts = []
        for strategy in ("naive", "strategic"):
            config = EngineConfig(strategy=strategy)
            with BatchExecutor(config, jobs=2, mode="process") as executor:
                verdicts.append(
                    [o.verdict for o in executor.run(workload)])
        assert verdicts[0] == verdicts[1]


class TestSessionBatchApi:
    def test_check_many_detailed_outcomes(self):
        session = SchemaSession()
        outcomes = session.check_many_detailed(GOOD, ["A", "B"])
        assert [o.verdict for o in outcomes] == [True, True]
        assert all(o.ok for o in outcomes)

    def test_check_many_is_a_shim_over_detailed(self):
        session = SchemaSession()
        assert session.check_many(GOOD, ["A", "B"]) == [True, True]

    def test_check_many_raises_carried_error(self):
        session = SchemaSession()
        with pytest.raises(CarError):
            session.check_many(GOOD, ["A", "NoSuchClass"])

    def test_check_many_detailed_isolates_errors(self):
        session = SchemaSession()
        outcomes = session.check_many_detailed(GOOD, ["A", "NoSuchClass"])
        assert outcomes[0].ok
        assert outcomes[1].error.kind == "ReasoningError"

    def test_check_many_detailed_budget(self):
        schema = clustered_schema(3, 4, seed=1)
        session = SchemaSession()
        name = sorted(schema.class_symbols)[0]
        outcomes = session.check_many_detailed(schema, [name], max_steps=5)
        assert outcomes[0].timed_out

    def test_run_batch_reuses_executor(self):
        session = SchemaSession()
        session.run_batch([(GOOD, "A")])
        first = session._executor
        session.run_batch([(GOOD, "B")])
        assert session._executor is first
        session.run_batch([(GOOD, "A")], jobs=2)
        assert session._executor is not first
        session.close()
        assert session._executor is None

    def test_run_batch_serial_hits_session_cache(self):
        session = SchemaSession()
        session.reasoner(GOOD)  # warm
        before = session.cache_info().hits
        session.run_batch([(GOOD, "A"), (GOOD, "B")])
        assert session.cache_info().hits > before

    def test_warm_returns_stats_in_order(self):
        session = SchemaSession()
        stats = session.warm([GOOD, CONTRADICTION])
        assert [s.classes for s in stats] == [2, 1]
        assert GOOD in session and CONTRADICTION in session

    def test_invalidate_iterable(self):
        session = SchemaSession()
        session.warm([GOOD, CONTRADICTION])
        session.invalidate([GOOD, CONTRADICTION])
        assert GOOD not in session
        assert CONTRADICTION not in session

    def test_invalidate_single_string_is_one_schema(self):
        session = SchemaSession()
        session.warm([GOOD])
        session.invalidate(GOOD)  # must not iterate the characters
        assert GOOD not in session
