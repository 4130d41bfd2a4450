"""Tests for the query service: routing, admission, caching, budgets,
the error→HTTP table, lifecycle, and the session thread-safety fix.

Most tests drive :meth:`ReproService.dispatch` directly — the application
logic is socket-free by design — with a smaller set of real-HTTP
round-trips over an ephemeral port and one subprocess test for the
SIGTERM drain path of ``repro serve``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core import errors as core_errors
from repro.core.errors import (
    BudgetExceeded,
    CarError,
    LinearSystemError,
    ParseError,
    ReasoningError,
    SchemaError,
    RegistryError,
    RegistryNotFound,
    RegistryQuotaError,
    RegistrySizeError,
    SemanticsError,
    SynthesisError,
)
from repro.core.lru import LruMemo
from repro.engine.config import EngineConfig
from repro.engine.session import SchemaSession
from repro.obs.tracer import Tracer, use_tracer
from repro.service.admission import AdmissionController, AdmissionRejected
from repro.service.app import ReproService, ServiceConfig
from repro.service.http import HTTP_STATUS_BY_EXIT, status_for_exit_code
from tests.wire import check_envelope, unwrap, unwrap_error

GOOD_SCHEMA = """
class Person endclass
class Student isa Person and not Professor endclass
class Professor isa Person endclass
"""

DISJOINT_SCHEMA = "class A isa not B endclass class B endclass"


def _dispatch(service, method, path, body=None, headers=None):
    raw = b"" if body is None else json.dumps(body).encode()
    response = service.dispatch(method, path, headers or {}, raw)
    # every dispatch in the suite validates the one v1 envelope schema
    check_envelope(response.payload, status=response.status)
    return response


@pytest.fixture
def service():
    svc = ReproService(ServiceConfig(port=0))
    yield svc
    svc.drain(grace=1.0)


# ----------------------------------------------------------------------
# Routing and request validation (socket-free)
# ----------------------------------------------------------------------
class TestRouting:
    def test_unknown_path_is_404(self, service):
        response = _dispatch(service, "GET", "/nope")
        assert response.status == 404
        assert response.payload["error"]["code"] == "not_found"

    def test_wrong_method_is_405_with_allow(self, service):
        response = _dispatch(service, "GET", "/v1/satisfiable")
        assert response.status == 405
        assert ("Allow", "POST") in response.headers

    def test_query_string_is_ignored_for_routing(self, service):
        response = _dispatch(service, "GET", "/healthz?verbose=1")
        assert response.status == 200

    def test_invalid_json_body_is_400(self, service):
        response = service.dispatch("POST", "/v1/satisfiable", {}, b"{oops")
        assert response.status == 400

    def test_non_object_body_is_400(self, service):
        response = service.dispatch("POST", "/v1/satisfiable", {}, b"[1]")
        assert response.status == 400

    def test_missing_schema_key_is_422(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"formula": "A"})
        assert response.status == 422
        assert response.payload["error"]["code"] == "parse_error"

    def test_missing_formula_key_is_422(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"schema": DISJOINT_SCHEMA})
        assert response.status == 422

    def test_schema_parse_error_is_422(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"schema": "class endclass", "formula": "A"})
        assert response.status == 422
        assert response.payload["error"]["sysexit"] == 65

    def test_unknown_class_is_400(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"schema": DISJOINT_SCHEMA, "class": "Nope"})
        assert response.status == 400
        assert response.payload["error"]["sysexit"] == 64

    def test_oversized_body_is_413(self):
        svc = ReproService(ServiceConfig(port=0, max_body_bytes=64))
        response = _dispatch(svc, "POST", "/v1/satisfiable",
                             {"schema": "x" * 100, "formula": "A"})
        assert response.status == 413
        assert response.payload["error"]["code"] == "payload_too_large"
        assert response.payload["error"]["sysexit"] == 77

    def test_every_response_carries_a_request_id(self, service):
        seen = set()
        for method, path, body in (
                ("GET", "/healthz", None),
                ("GET", "/metrics", None),
                ("POST", "/v1/satisfiable",
                 {"schema": DISJOINT_SCHEMA, "formula": "A"}),
                ("GET", "/nope", None)):
            response = _dispatch(service, method, path, body)
            assert response.payload["request_id"]
            seen.add(response.payload["request_id"])
        assert len(seen) == 4  # ids are fresh per request

    def test_bad_timeout_header_is_400(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"schema": DISJOINT_SCHEMA, "formula": "A"},
                             headers={"X-Repro-Timeout-Ms": "soon"})
        assert response.status == 400

    def test_nonpositive_steps_header_is_400(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"schema": DISJOINT_SCHEMA, "formula": "A"},
                             headers={"X-Repro-Max-Steps": "0"})
        assert response.status == 400


class TestSatisfiable:
    def test_verdict_true(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"schema": DISJOINT_SCHEMA,
                              "formula": "A and not B"})
        assert response.status == 200
        data = unwrap(response.payload)
        assert data["verdict"] is True
        assert data["cache"] == "miss"

    def test_verdict_false(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"schema": DISJOINT_SCHEMA,
                              "formula": "A and B"})
        assert response.status == 200
        assert response.payload["data"]["verdict"] is False

    def test_class_key_matches_cli_satisfiable(self, service, tmp_path):
        path = tmp_path / "schema.car"
        path.write_text(GOOD_SCHEMA)
        for name in ("Person", "Student", "Professor"):
            cli_exit = main(["satisfiable", str(path), name])
            response = _dispatch(service, "POST", "/v1/satisfiable",
                                 {"schema": GOOD_SCHEMA, "class": name})
            assert response.status == 200
            assert response.payload["data"]["verdict"] is (cli_exit == 0)

    def test_repeat_query_hits_the_result_cache(self, service):
        body = {"schema": DISJOINT_SCHEMA, "formula": "A"}
        first = _dispatch(service, "POST", "/v1/satisfiable", body)
        second = _dispatch(service, "POST", "/v1/satisfiable", body)
        assert first.payload["data"]["cache"] == "miss"
        assert second.payload["data"]["cache"] == "hit"
        assert (second.payload["data"]["verdict"]
                == first.payload["data"]["verdict"])
        assert service.cache.stats().hits == 1

    def test_reordered_schema_shares_a_cache_entry(self, service):
        reordered = "class B endclass class A isa not B endclass"
        first = _dispatch(service, "POST", "/v1/satisfiable",
                          {"schema": DISJOINT_SCHEMA, "formula": "A"})
        second = _dispatch(service, "POST", "/v1/satisfiable",
                           {"schema": reordered, "formula": "A"})
        assert second.payload["data"]["cache"] == "hit"
        assert (first.payload["data"]["schema_fingerprint"]
                == second.payload["data"]["schema_fingerprint"])

    def test_errors_are_not_cached(self, service):
        body = {"schema": DISJOINT_SCHEMA, "class": "Nope"}
        for _ in range(2):
            response = _dispatch(service, "POST", "/v1/satisfiable", body)
            assert response.status == 400
        assert service.cache.stats().size == 0


class TestClassify:
    def test_subsumptions_match_cli(self, service, tmp_path):
        response = _dispatch(service, "POST", "/v1/classify",
                             {"schema": GOOD_SCHEMA})
        assert response.status == 200
        assert ["Student", "Person"] in \
            response.payload["data"]["subsumptions"]

    def test_parse_error_is_422(self, service):
        response = _dispatch(service, "POST", "/v1/classify",
                             {"schema": "class endclass"})
        assert response.status == 422

    def test_identical_requests_parse_once(self, service, count_calls):
        """/v1/classify goes through the service's schema memo, like
        /v1/satisfiable: a repeated source is parsed once."""
        from repro.parser.parser import parse_schema

        parses = count_calls(parse_schema)
        for _ in range(5):
            response = _dispatch(service, "POST", "/v1/classify",
                                 {"schema": GOOD_SCHEMA})
            assert response.status == 200
        assert len(parses) == 1


class TestBatch:
    def test_batch_outcomes_in_order(self, service):
        response = _dispatch(service, "POST", "/v1/batch", {"queries": [
            {"schema": DISJOINT_SCHEMA, "formula": "A"},
            {"schema": DISJOINT_SCHEMA, "formula": "A and B"},
            {"schema": "class C isa not C endclass", "formula": "C"},
        ]})
        assert response.status == 200
        assert response.payload["data"]["summary"] == {
            "total": 3, "ok": 3, "timed_out": 0, "failed": 0}
        verdicts = [o["verdict"]
                    for o in response.payload["data"]["outcomes"]]
        assert verdicts == [True, False, False]

    def test_bad_query_is_isolated_not_fatal(self, service):
        response = _dispatch(service, "POST", "/v1/batch", {"queries": [
            {"schema": "class endclass", "formula": "A"},
            {"schema": DISJOINT_SCHEMA, "formula": "A"},
        ]})
        assert response.status == 200
        assert response.payload["data"]["summary"]["failed"] == 1
        assert response.payload["data"]["summary"]["ok"] == 1

    def test_missing_queries_key_is_422(self, service):
        response = _dispatch(service, "POST", "/v1/batch", {"batch": []})
        assert response.status == 422

    def test_bad_mode_is_422(self, service):
        response = _dispatch(service, "POST", "/v1/batch",
                             {"queries": [], "mode": "warp"})
        assert response.status == 422

    def test_oversized_batch_is_413(self):
        svc = ReproService(ServiceConfig(port=0, max_batch_queries=2))
        response = _dispatch(svc, "POST", "/v1/batch", {"queries": [
            {"schema": DISJOINT_SCHEMA, "formula": "A"}] * 3
            + [{"schema_ref": "s@x", "formula": "A"}]})
        assert response.status == 413


class TestIntrospection:
    def test_healthz(self, service):
        response = _dispatch(service, "GET", "/healthz")
        assert response.status == 200
        assert response.payload["data"]["status"] == "ok"

    def test_readyz_flips_on_drain(self, service):
        service._ready.set()
        assert _dispatch(service, "GET", "/readyz").status == 200
        service._draining.set()
        response = _dispatch(service, "GET", "/readyz")
        assert response.status == 503
        assert response.payload["error"]["code"] == "draining"

    def test_post_while_draining_is_503_with_retry_after(self, service):
        service._draining.set()
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             {"schema": DISJOINT_SCHEMA, "formula": "A"})
        assert response.status == 503
        assert ("Retry-After", "1") in response.headers

    def test_metrics_exposes_every_subsystem(self, service):
        _dispatch(service, "POST", "/v1/satisfiable",
                  {"schema": DISJOINT_SCHEMA, "formula": "A"})
        response = _dispatch(service, "GET", "/metrics")
        assert response.status == 200
        data = unwrap(response.payload)
        assert data["admission"]["admitted"] == 1
        assert data["result_cache"]["misses"] == 1
        assert data["session"]["misses"] == 1
        assert data["counters"]["service.requests"] >= 1
        assert data["counters"]["session.cache_misses"] == 1
        assert data["latency"]["count"] >= 1
        assert data["latency"]["p99_ms"] >= data["latency"]["p50_ms"]

    def test_metrics_cache_objects_keep_their_keys(self, service):
        """The wire shape of the two cache objects of ``/metrics``."""
        _dispatch(service, "POST", "/v1/satisfiable",
                  {"schema": DISJOINT_SCHEMA, "formula": "A"})
        data = unwrap(_dispatch(service, "GET", "/metrics").payload)
        assert set(data["result_cache"]) == {
            "hits", "misses", "evictions", "hit_rate", "size", "limit"}
        assert set(data["session"]) == {
            "stats_schema", "hits", "misses", "evictions", "size", "limit",
            "hit_rate"}

    def test_fast_path_counts_a_hit_and_never_a_miss(self, service):
        body = json.dumps({"schema": DISJOINT_SCHEMA,
                           "formula": "A"}).encode()
        route = ("POST", "/v1/satisfiable", {}, body)
        assert service.try_fast_dispatch(*route) is None    # cold probe
        assert service.dispatch(*route).status == 200       # the miss
        assert service.try_fast_dispatch(*route).status == 200
        stats = service.cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert service.tracer.counter("service.result_cache_hits") == 1
        assert service.tracer.counter("service.result_cache_misses") == 1

    def test_version_reports_every_schema_version(self, service):
        response = _dispatch(service, "GET", "/v1/version")
        assert response.status == 200
        data = unwrap(response.payload)
        assert data["api_version"] == 1
        assert {"artifact_schema_version", "trace_schema_version",
                "stats_schema_version", "lp_backend"} <= set(data)

    def test_version_reports_backend_identity(self, service):
        """Clients audit the solver in use via the version envelope."""
        data = unwrap(_dispatch(service, "GET", "/v1/version").payload)
        backend = data["lp_backend"]
        assert backend["spec"] == "auto"
        assert backend["name"] == "auto"
        capabilities = backend["capabilities"]
        assert capabilities["closed_form"] is True
        assert capabilities["sparse"] is True
        assert set(capabilities) == {"arithmetic", "sparse", "closed_form",
                                     "degeneracy"}


# ----------------------------------------------------------------------
# Budgets: headers, clamping, 504 with partial stats
# ----------------------------------------------------------------------
def _exptime_query():
    from repro.parser.printer import render_schema
    from repro.reductions import machine_to_schema, parity_machine

    reduction = machine_to_schema(parity_machine(), (0, 1, 0, 1), 6, 6)
    return {"schema": render_schema(reduction.schema),
            "formula": str(reduction.target)}


class TestBudgets:
    def test_header_clamped_by_server_cap(self):
        svc = ReproService(ServiceConfig(port=0, max_timeout_ms=100))
        deadline, steps = svc._budget_from({"X-Repro-Timeout-Ms": "60000"})
        assert deadline == 0.1 and steps is None

    def test_server_default_applies_without_header(self):
        svc = ReproService(ServiceConfig(port=0, default_timeout_ms=250,
                                         default_max_steps=10))
        deadline, steps = svc._budget_from({})
        assert deadline == 0.25 and steps == 10

    def test_step_budget_trips_504(self, service):
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             _exptime_query(),
                             headers={"X-Repro-Max-Steps": "5"})
        assert response.status == 504
        error = unwrap_error(response.payload)
        assert error["sysexit"] == 75
        assert error["steps"] >= 1

    def test_deadline_trips_504_fast_with_partial_stats(self, service):
        start = time.perf_counter()
        response = _dispatch(service, "POST", "/v1/satisfiable",
                             _exptime_query(),
                             headers={"X-Repro-Timeout-Ms": "50"})
        wall = time.perf_counter() - start
        assert response.status == 504
        error = unwrap_error(response.payload)
        assert error["code"] == "budget_exceeded"
        assert error["duration_s"] > 0
        assert wall < 2.0

    def test_classify_honors_the_budget(self, service):
        response = _dispatch(service, "POST", "/v1/classify",
                             _exptime_query(),
                             headers={"X-Repro-Timeout-Ms": "50"})
        assert response.status == 504

    def test_admission_queue_wait_is_charged_to_the_budget(self):
        """A request that waited ~its whole X-Repro-Timeout-Ms in the
        admission queue must not restart with a full budget: the wait is
        subtracted, so here it trips 504 immediately after admission."""
        svc = ReproService(ServiceConfig(port=0, max_inflight=1,
                                         queue_depth=4,
                                         queue_timeout_s=10.0))
        svc.admission.acquire()  # hold the only slot
        result = {}

        def queued():
            result["response"] = _dispatch(
                svc, "POST", "/v1/satisfiable",
                {"schema": DISJOINT_SCHEMA, "formula": "A"},
                headers={"X-Repro-Timeout-Ms": "100"})

        thread = threading.Thread(target=queued)
        thread.start()
        time.sleep(0.4)  # well past the 100ms the client budgeted
        svc.admission.release()
        thread.join(timeout=10)
        response = result["response"]
        assert response.status == 504
        error = unwrap_error(response.payload)
        assert error["code"] == "budget_exceeded"
        assert "admission queue" in error["message"]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_admits_up_to_max_inflight(self):
        controller = AdmissionController(max_inflight=2, max_queue=0)
        controller.acquire()
        controller.acquire()
        with pytest.raises(AdmissionRejected) as info:
            controller.acquire()
        assert info.value.reason == "queue_full"
        assert info.value.retry_after >= 1
        controller.release()
        controller.acquire()  # a freed slot admits again

    def test_queued_request_gets_the_freed_slot(self):
        controller = AdmissionController(max_inflight=1, max_queue=1,
                                         queue_timeout=5.0)
        controller.acquire()
        admitted = threading.Event()

        def waiter():
            controller.acquire()
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        controller.release()
        thread.join(timeout=5.0)
        assert admitted.is_set()

    def test_queue_wait_times_out(self):
        controller = AdmissionController(max_inflight=1, max_queue=1,
                                         queue_timeout=0.05)
        controller.acquire()
        with pytest.raises(AdmissionRejected) as info:
            controller.acquire()
        assert info.value.reason == "timeout"

    def test_stats_snapshot(self):
        controller = AdmissionController(max_inflight=1, max_queue=0)
        controller.acquire()
        with pytest.raises(AdmissionRejected):
            controller.acquire()
        stats = controller.stats()
        assert stats.admitted == 1
        assert stats.rejected == 1
        assert stats.inflight == 1
        assert stats.peak_inflight == 1
        controller.release()
        assert controller.wait_idle(timeout=1.0)

    def test_dispatch_returns_429_when_saturated(self):
        svc = ReproService(ServiceConfig(port=0, max_inflight=1,
                                         queue_depth=0))
        svc.admission.acquire()  # simulate a stuck in-flight request
        try:
            response = _dispatch(svc, "POST", "/v1/satisfiable",
                                 {"schema": DISJOINT_SCHEMA,
                                  "formula": "A"})
        finally:
            svc.admission.release()
        assert response.status == 429
        assert any(name == "Retry-After" for name, _ in response.headers)
        # GET endpoints bypass admission: health stays observable under load
        assert _dispatch(svc, "GET", "/healthz").status == 200


# ----------------------------------------------------------------------
# The result cache
# ----------------------------------------------------------------------
class TestResultCache:
    """The result cache is an :class:`LruMemo` keyed by ``(fingerprint,
    formula)``; these pin the behaviour the service relies on."""

    def test_lru_eviction_and_counters(self):
        cache = LruMemo(2, "service.result_cache", gauge=True)
        tracer = Tracer()
        with use_tracer(tracer):
            cache.put(("f1", "A"), True)
            cache.put(("f2", "A"), False)
            assert cache.get(("f1", "A")) is True   # f1 now most recent
            cache.put(("f3", "A"), True)            # evicts f2
            assert cache.get(("f2", "A")) is None
            assert cache.get(("f1", "A")) is True
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2
        assert stats.hits == 2 and stats.misses == 1
        assert tracer.counter("service.result_cache_hits") == 2
        assert tracer.counter("service.result_cache_misses") == 1
        assert tracer.counter("service.result_cache_evictions") == 1
        assert tracer.gauges["service.result_cache_size"] == 2

    def test_false_verdicts_are_cached(self):
        cache = LruMemo()
        cache.put(("f", "A and B"), False)
        assert cache.get(("f", "A and B")) is False

    def test_probe_counts_a_hit_but_never_a_miss(self):
        cache = LruMemo(4)
        assert cache.get(("f", "A"), count_miss=False) is None
        cache.put(("f", "A"), True)
        assert cache.get(("f", "A"), count_miss=False) is True
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 0)

    def test_peek_pop_and_clear_are_uncounted(self):
        cache = LruMemo(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1             # recency unchanged ...
        cache.put("c", 3)                       # ... so "a" is evicted
        assert cache.peek("a") is None
        assert cache.pop("b") == 2 and cache.pop("b") is None
        assert cache.clear() == [3]
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions, stats.size) \
            == (0, 0, 1, 0)

    def test_setdefault_keeps_the_first_value(self):
        cache = LruMemo(2)
        assert cache.setdefault("k", "first") == "first"
        assert cache.setdefault("k", "second") == "first"
        cache.put("k", "third")
        assert cache.peek("k") == "third"

    def test_concurrent_access_is_safe(self):
        cache = LruMemo(8)
        failures = []

        def hammer(seed):
            try:
                for i in range(300):
                    key = (f"fp{(seed + i) % 16}", "A")
                    cache.put(key, True)
                    cache.get(key)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(cache) <= 8
        stats = cache.stats()
        assert stats.hits + stats.misses == 6 * 300


# ----------------------------------------------------------------------
# The error table: CLI exit codes and HTTP statuses cannot drift
# ----------------------------------------------------------------------
#: (error class, stable sysexit, HTTP status) — one row per exit code of
#: the core/errors.py hierarchy, pinning both renderings of the table.
ERROR_TABLE = [
    (ParseError, 65, 422),
    (RegistryError, 65, 422),
    (RegistryNotFound, 67, 404),
    (RegistryQuotaError, 69, 429),
    (RegistrySizeError, 77, 413),
    (SchemaError, 65, 422),
    (SemanticsError, 65, 422),
    (ReasoningError, 64, 400),
    (BudgetExceeded, 75, 504),
    (SynthesisError, 73, 500),
    (LinearSystemError, 70, 500),
    (CarError, 70, 500),
]


class TestErrorTable:
    def test_every_error_class_is_covered(self):
        covered = {cls for cls, _, _ in ERROR_TABLE}
        public = {getattr(core_errors, name) for name in core_errors.__all__}
        assert public == covered

    @pytest.mark.parametrize("error_class,exit_code,http_status",
                             ERROR_TABLE)
    def test_cli_exit_and_service_status_agree(
            self, error_class, exit_code, http_status, tmp_path,
            monkeypatch, capsys):
        assert error_class.exit_code == exit_code
        assert status_for_exit_code(error_class.exit_code) == http_status

        # The CLI renders the same table as a process exit code: raise the
        # error from inside a handler and assert the mapped exit status.
        def explode(self, schema):
            raise error_class("synthetic failure")

        monkeypatch.setattr(SchemaSession, "reasoner", explode)
        path = tmp_path / "schema.car"
        path.write_text(DISJOINT_SCHEMA)
        assert main(["satisfiable", str(path), "A"]) == exit_code
        assert "synthetic failure" in capsys.readouterr().err

    def test_every_mapped_exit_code_has_a_status(self):
        for _, exit_code, http_status in ERROR_TABLE:
            assert HTTP_STATUS_BY_EXIT[exit_code] == http_status
        assert status_for_exit_code(99) == 500  # unknown codes degrade


# ----------------------------------------------------------------------
# SchemaSession: context manager + concurrent LRU (satellites)
# ----------------------------------------------------------------------
class TestSessionContextManager:
    def test_with_block_closes_the_executor(self):
        with SchemaSession() as session:
            outcomes = session.run_batch(
                [{"schema": DISJOINT_SCHEMA, "formula": "A"}], jobs=1)
            assert outcomes[0].verdict is True
            assert session._executor is not None
        assert session._executor is None

    def test_enter_returns_the_session(self):
        session = SchemaSession()
        with session as entered:
            assert entered is session


class TestSessionThreadSafety:
    def test_concurrent_lru_access_never_crashes(self):
        """Regression: unlocked get/move_to_end racing popitem KeyErrors.

        A tiny LRU bound plus more schemas than slots maximizes eviction
        pressure while many threads look up and insert concurrently.
        """
        session = SchemaSession(EngineConfig(session_cache_limit=2))
        schemas = [
            f"class C{i} isa not D{i} endclass class D{i} endclass"
            for i in range(8)
        ]
        failures = []
        rounds = 40

        def hammer(seed):
            try:
                for i in range(rounds):
                    schema = schemas[(seed * 7 + i) % len(schemas)]
                    session.reasoner(schema)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        info = session.cache_info()
        assert info.hits + info.misses == 8 * rounds
        assert info.size <= 2

    def test_concurrent_misses_share_one_reasoner(self):
        """Misses build outside the LRU's lock; threads that miss one
        schema together still get one reasoner, the one kept."""
        session = SchemaSession()
        sources = [f"class A{i} isa not B endclass class B endclass"
                   for i in range(5)]
        barrier = threading.Barrier(8)
        got = {source: [] for source in sources}

        def miss():
            for source in sources:
                barrier.wait(timeout=10)
                got[source].append(session.reasoner(source))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=miss) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for source, reasoners in got.items():
            assert len(reasoners) == 8
            assert len({id(reasoner) for reasoner in reasoners}) == 1
            assert session.reasoner(source) is reasoners[0]
        info = session.cache_info()
        assert (info.hits + info.misses, info.size) == (45, 5)

    def test_concurrent_queries_agree_with_serial(self):
        from repro.parser.parser import parse_formula

        session = SchemaSession()
        formulas = [parse_formula(text) for text in (
            "A", "B", "A and B", "A and not B", "not A and B")]
        serial = [SchemaSession().check_many(DISJOINT_SCHEMA, [f])[0]
                  for f in formulas]
        results: dict[int, bool] = {}

        def query(index):
            results[index] = session.check_many(
                DISJOINT_SCHEMA, [formulas[index]])[0]

        threads = [threading.Thread(target=query, args=(i,))
                   for i in range(len(formulas))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [results[i] for i in range(len(formulas))] == serial


# ----------------------------------------------------------------------
# Real HTTP round-trips over an ephemeral port
# ----------------------------------------------------------------------
def _http(base, method, path, body=None, headers=None, timeout=30):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(base + path, data=data,
                                     headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="class")
def live_service():
    with ReproService(ServiceConfig(port=0, max_inflight=4)) as svc:
        yield svc, f"http://{svc.host}:{svc.port}"


class TestLiveHttp:
    def test_health_and_ready(self, live_service):
        _, base = live_service
        assert _http(base, "GET", "/healthz")[0] == 200
        assert _http(base, "GET", "/readyz")[0] == 200

    def test_request_id_header_matches_body(self, live_service):
        _, base = live_service
        with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
            payload = json.loads(resp.read())
            assert (resp.headers["X-Repro-Request-Id"]
                    == payload["request_id"])

    def test_concurrent_satisfiable_matches_serial_cli(self, live_service):
        _, base = live_service
        cases = [("A", True), ("B", True), ("A and B", False),
                 ("A and not B", True), ("not A and B", True)]
        results: dict[str, tuple[int, dict]] = {}

        def ask(formula):
            results[formula] = _http(
                base, "POST", "/v1/satisfiable",
                {"schema": DISJOINT_SCHEMA, "formula": formula})

        threads = [threading.Thread(target=ask, args=(f,))
                   for f, _ in cases for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for formula, expected in cases:
            status, payload = results[formula]
            assert status == 200
            assert unwrap(payload, status=status)["verdict"] is expected

    def test_exptime_504_does_not_disturb_other_requests(self,
                                                         live_service):
        _, base = live_service
        hard = _exptime_query()
        outcome: dict = {}

        def slow():
            outcome["hard"] = _http(base, "POST", "/v1/satisfiable", hard,
                                    headers={"X-Repro-Timeout-Ms": "50"})

        thread = threading.Thread(target=slow)
        start = time.perf_counter()
        thread.start()
        easy_status, easy_payload = _http(
            base, "POST", "/v1/satisfiable",
            {"schema": DISJOINT_SCHEMA, "formula": "A"})
        thread.join(timeout=10)
        wall = time.perf_counter() - start
        assert easy_status == 200
        assert unwrap(easy_payload)["verdict"] is True
        status, payload = outcome["hard"]
        assert status == 504
        assert unwrap_error(payload, status=status)["sysexit"] == 75
        assert wall < 5.0

    def test_saturated_service_returns_429_not_a_crash(self, live_service):
        svc, base = live_service
        # An uncached formula: warm hits would legitimately bypass
        # admission via the event-loop fast path and answer 200.
        cold = {"schema": DISJOINT_SCHEMA, "formula": "B and (A or not A)"}
        # Hold every slot so the next POST overflows the (empty) queue.
        for _ in range(svc.config.max_inflight):
            svc.admission.acquire()
        # Fill the wait queue too, via a zero-patience controller state:
        # queue_depth waiters would block, so shrink the window instead.
        try:
            saved = svc.admission.max_queue, svc.admission.queue_timeout
            svc.admission.max_queue = 0
            status, payload = _http(base, "POST", "/v1/satisfiable", cold)
        finally:
            svc.admission.max_queue, svc.admission.queue_timeout = saved
            for _ in range(svc.config.max_inflight):
                svc.admission.release()
        assert status == 429
        error = unwrap_error(payload, status=status)
        assert error["code"] == "admission_rejected"
        assert error["retry_after_ms"] >= 1000
        # and the service still answers once slots free up
        status, payload = _http(base, "POST", "/v1/satisfiable",
                                {"schema": DISJOINT_SCHEMA, "formula": "A"})
        assert status == 200

    def test_batch_round_trip(self, live_service):
        _, base = live_service
        status, payload = _http(base, "POST", "/v1/batch", {"queries": [
            {"schema": DISJOINT_SCHEMA, "formula": "A"},
            {"schema": DISJOINT_SCHEMA, "formula": "A and B"},
        ]})
        assert status == 200
        assert unwrap(payload, status=status)["summary"]["ok"] == 2

    def test_metrics_round_trip(self, live_service):
        _, base = live_service
        status, payload = _http(base, "GET", "/metrics")
        assert status == 200
        data = unwrap(payload, status=status)
        assert {"admission", "result_cache", "session", "counters",
                "gauges", "uptime_s", "latency"} <= set(data)
        assert data["counters"]["service.connections_opened"] >= 1

    def test_warm_hit_takes_the_event_loop_fast_path(self, live_service):
        svc, base = live_service
        body = {"schema": DISJOINT_SCHEMA, "formula": "not A and not B"}
        before = svc.tracer.counters.get("service.fast_path_hits", 0)
        first = _http(base, "POST", "/v1/satisfiable", body)
        assert unwrap(first[1])["cache"] == "miss"
        second = _http(base, "POST", "/v1/satisfiable", body)
        assert unwrap(second[1])["cache"] == "hit"
        after = svc.tracer.counters.get("service.fast_path_hits", 0)
        assert after == before + 1


# ----------------------------------------------------------------------
# The serve subcommand: startup banner and graceful SIGTERM drain
# ----------------------------------------------------------------------
class TestServeCommand:
    def test_no_flags_build_the_default_config(self):
        from repro.cli import _serve_config, build_parser

        args = build_parser().parse_args(["serve"])
        assert _serve_config(args) == ServiceConfig()

    def test_flags_override_their_fields(self):
        from repro.cli import _serve_config, build_parser

        args = build_parser().parse_args(
            ["serve", "--cache-size", "7", "--queue-timeout", "0.25",
             "--default-timeout-ms", "900"])
        assert _serve_config(args) == ServiceConfig(
            cache_limit=7, queue_timeout_s=0.25, default_timeout_ms=900)

    def test_sigterm_drains_and_exits_zero(self):
        src = str((os.path.dirname(os.path.dirname(__file__))) + "/src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env) as proc:
            try:
                banner = proc.stdout.readline()
                match = re.search(r"http://([\d.]+):(\d+)", banner)
                assert match, f"no address in banner: {banner!r}"
                base = f"http://{match.group(1)}:{match.group(2)}"
                status, payload = _http(base, "POST", "/v1/satisfiable",
                                        {"schema": DISJOINT_SCHEMA,
                                         "formula": "A"})
                assert status == 200
                assert unwrap(payload, status=status)["verdict"] is True
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=15) == 0
                assert "shutdown complete" in proc.stderr.read()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=5)

    def test_serve_is_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "serve" in capsys.readouterr().out
