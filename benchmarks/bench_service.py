"""Experiment "service": the asyncio front end must make repeats cheap.

Acceptance bars for ``repro serve``:

* **Warm-cache throughput** — repeated ``POST /v1/satisfiable`` over
  real keep-alive HTTP is answered from the fingerprint-keyed result
  cache on the event-loop fast path.  Driven concurrently (8 pipelined
  connections from the closed-loop generator in :mod:`loadgen`), the
  asyncio transport must clear **10x** the 1,289.955 req/s the PR 5
  threaded front end measured on this same query, plus an absolute
  floor that guards against the cache being silently bypassed.
* **Budget responsiveness** — a 50 ms ``X-Repro-Timeout-Ms`` budget
  against the Theorem 4.1 EXPTIME reduction returns HTTP 504 (sysexit
  75 in the envelope) in under a second, while a concurrent trivial
  query still gets its verdict.
"""

import threading

import pytest

import loadgen
from benchlib import Table, request_json, run_table, timed
from repro.parser.printer import render_schema
from repro.reductions import machine_to_schema, parity_machine
from repro.service import ReproService, ServiceConfig

DISJOINT_SCHEMA = "class A isa not B endclass class B endclass"
WARM_BODY = {"schema": DISJOINT_SCHEMA, "formula": "A and not B"}

#: what the PR 5 threaded, one-request-per-connection front end measured
#: for this exact warm-cache query (BENCH_service.json history).
THREADED_BASELINE_RPS = 1289.955
SPEEDUP_BAR = 10.0
ABSOLUTE_FLOOR_RPS = 500.0

CONNECTIONS = 8
REQUESTS_PER_CONNECTION = 1000
PIPELINE = 32
TRIALS = 3  # best-of: the bar is about capability, not scheduler luck


def throughput_table() -> Table:
    """One cold miss, then warm repeats in serial lockstep on one
    keep-alive connection and concurrently over pipelined connections
    (best of ``TRIALS``).  Every response must be a 200 in a sound
    envelope, and every warm request a result-cache hit."""
    with ReproService(ServiceConfig(port=0)) as service:
        cold = loadgen.run_load(service.host, service.port, connections=1,
                                requests_per_connection=1, body=WARM_BODY)
        serial = loadgen.run_load(service.host, service.port, connections=1,
                                  requests_per_connection=200, body=WARM_BODY)
        concurrent = None
        for _ in range(TRIALS):
            trial = loadgen.run_load(
                service.host, service.port, connections=CONNECTIONS,
                requests_per_connection=REQUESTS_PER_CONNECTION,
                pipeline=PIPELINE, body=WARM_BODY, validate="first")
            if concurrent is None or trial.rps > concurrent.rps:
                concurrent = trial
        stats = service.cache.stats()
        histogram = service.latency.snapshot()
    assert cold.statuses == {200: 1}
    for drive in (serial, concurrent):
        assert drive.statuses == {200: drive.requests}
        assert drive.transport_errors == 0
        assert drive.envelope_violations == 0
    assert stats.misses == 1, "every warm request must reuse the one cold result"
    assert histogram["count"] >= (1 + serial.requests
                                  + concurrent.requests * TRIALS)
    return Table(
        "Query service — warm-cache throughput (POST /v1/satisfiable, "
        "keep-alive)",
        ["drive", "requests", "req/s", "p50 ms", "p99 ms",
         "vs threaded baseline"],
        [("PR 5 threaded baseline (1 conn, Connection: close)", "-",
          THREADED_BASELINE_RPS, "-", "-", "1.0x")]
        + [(label, drive.requests, drive.rps, drive.percentile_ms(0.50),
            drive.percentile_ms(0.99),
            f"{drive.rps / THREADED_BASELINE_RPS:.1f}x")
           for label, drive in (
               ("serial (1 conn, lockstep)", serial),
               (f"concurrent ({CONNECTIONS} conns, pipeline {PIPELINE}, "
                f"best of {TRIALS})", concurrent))])


def budget_table() -> Table:
    """A 50 ms ``X-Repro-Timeout-Ms`` budget against the Theorem 4.1
    reduction, with a trivial query sent alongside: the first must come
    back 504 (sysexit 75, ``budget_exceeded``), the second 200 with its
    verdict, both in sound envelopes."""
    reduction = machine_to_schema(parity_machine(), (0, 1, 0, 1), 6, 6)
    hard = {"schema": render_schema(reduction.schema),
            "formula": str(reduction.target)}
    easy = {"schema": DISJOINT_SCHEMA, "formula": "A"}
    with ReproService(ServiceConfig(port=0)) as service:
        base = f"http://{service.host}:{service.port}"
        outcome = {}

        def slow():
            outcome["hard"] = request_json(
                base, "/v1/satisfiable", hard,
                headers={"X-Repro-Timeout-Ms": "50"})

        def both():
            thread = threading.Thread(target=slow)
            thread.start()
            outcome["easy"] = request_json(base, "/v1/satisfiable", easy)
            thread.join(timeout=10)

        wall_s, _ = timed(both)
    hard_status, hard_payload = outcome["hard"]
    easy_status, easy_payload = outcome["easy"]
    assert loadgen.check_envelope(hard_payload)
    assert loadgen.check_envelope(easy_payload)
    assert hard_status == 504
    assert hard_payload["error"]["sysexit"] == 75
    assert hard_payload["error"]["code"] == "budget_exceeded"
    assert easy_status == 200 and easy_payload["data"]["verdict"] is True
    return Table("Query service — 50 ms budget vs EXPTIME reduction over HTTP",
                 ["query", "status", "error code", "wall s"],
                 [("EXPTIME reduction", hard_status,
                   hard_payload["error"]["code"], wall_s),
                  ("trivial neighbor", easy_status, "-", wall_s)])


@pytest.mark.experiment("service")
def test_warm_cache_throughput(benchmark):
    rps = run_table(benchmark, throughput_table)[-1][2]
    speedup = rps / THREADED_BASELINE_RPS
    assert rps >= ABSOLUTE_FLOOR_RPS
    assert speedup >= SPEEDUP_BAR, (
        f"concurrent warm-cache throughput {rps:.0f} req/s is only "
        f"{speedup:.1f}x the {THREADED_BASELINE_RPS:.0f} req/s threaded "
        f"baseline (bar: {SPEEDUP_BAR:.0f}x)")


@pytest.mark.experiment("service")
def test_budget_504_leaves_neighbors_unharmed(benchmark):
    wall_s = run_table(benchmark, budget_table)[0][3]
    assert wall_s < 1.0, (
        f"50ms-budget request took {wall_s:.2f}s to come back as 504")
