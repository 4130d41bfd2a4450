"""The three workloads: their operations, closed loop and output checks.

Every workload runs in one of two modes.  The end-to-end mode measures
with tracing off: ``cold_check`` in a fresh worker process
(:mod:`cold_worker`), the HTTP workloads against a ``repro serve``
subprocess.  The traced mode replays the same seeded operations
in-process (the HTTP workloads against an in-process service on an
ephemeral port, through the same client) with the wrappers of
:mod:`tracing` installed, tracing a seeded half of the operations.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from common import (BENCH_DIR, MIN_OPS, OUT_DIR, ROOT, SetupError, child_env,
                    percentile, require_program, scratch_dir)
from service import valid_envelope

#: The untraced timed phase runs in this many equal segments, and a fresh
#: set-up is timed after each, untimed by the phase itself.  ``setup_s``
#: is the median of these and the set-up before the first segment.  The
#: host's speed drifts by tens of percent over a few seconds, so set-ups
#: timed back to back move together; spread over the run they sample the
#: host as the timed phase does.
SETUP_SEGMENTS = 6
#: A run stops at ``--seconds`` once it has MIN_OPS operations, and in any
#: case at this multiple of ``--seconds``.
HARD_CAP = 4.0


@dataclass
class Request:
    kind: str  # "check", "query", "read" or "write"
    method: str
    path: str
    document: Optional[dict] = None
    headers: Optional[dict] = None
    expect: object = None


@dataclass
class Tally:
    """What one timed phase observed."""

    latencies: list = field(default_factory=list)  # s; reads/queries/checks
    writes: list = field(default_factory=list)  # s; registry PUTs
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    cache: Counter = field(default_factory=Counter)
    elapsed: float = 0.0
    #: (expect, observed) pairs checked after the clock stops.
    pending: list = field(default_factory=list)
    #: Reuse accounting summed over the revalidation reports of PUTs.
    reuse: Counter = field(default_factory=Counter)
    traced: list = field(default_factory=list)  # latencies of traced ops
    untraced: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1


def closed_loop(operations: Iterable, seconds: float,
                run_one: Callable[[int, object], None],
                between: Optional[Callable[[], None]] = None
                ) -> tuple[int, float]:
    """Issue operations back to back until time is up; ``(count, s)``.

    With ``between`` the clock stops after each of SETUP_SEGMENTS equal
    shares of ``seconds`` while ``between()`` runs."""
    pending = iter(operations)
    count, elapsed = 0, 0.0
    segments = SETUP_SEGMENTS if between is not None else 1
    for segment in range(1, segments + 1):
        share = seconds * segment / segments
        started = time.perf_counter()
        while True:
            spent = elapsed + time.perf_counter() - started
            if (spent >= share and (segment < segments or count >= MIN_OPS)) \
                    or spent >= HARD_CAP * seconds:
                break
            operation = next(pending, None)
            if operation is None:
                break
            run_one(count, operation)
            count += 1
        elapsed += time.perf_counter() - started
        if between is not None:
            between()
    return count, elapsed


# ----------------------------------------------------------------------
# cold_check
# ----------------------------------------------------------------------
def cold_op(source: str) -> dict:
    """One cold `repro satisfiable` of every class: parse, a fresh
    session without artifact cache, a verdict per class."""
    from repro.engine.session import SchemaSession
    from repro.parser.parser import parse_schema

    with SchemaSession() as session:
        schema = parse_schema(source)
        reasoner = session.reasoner(schema)
        return {name: reasoner.is_satisfiable(name)
                for name in sorted(schema.class_symbols)}


def cold_expected(entry) -> dict:
    from oracles import isa_only_verdicts

    if entry.reference == "isa":
        return isa_only_verdicts(entry.schema)
    return {name: entry.reference == "all"
            for name in entry.schema.class_symbols}


def cold_loop(pool, seconds: float, tally: Tally,
              recorder=None, rng: Optional[random.Random] = None,
              between: Optional[Callable[[], None]] = None) -> None:
    def run_one(index: int, entry) -> None:
        traced = recorder is not None and rng.random() < 0.5
        started = time.perf_counter()
        if recorder is None:
            verdicts = cold_op(entry.source)
        else:
            with recorder.operation(index, "check", traced):
                verdicts = cold_op(entry.source)
        elapsed = time.perf_counter() - started
        tally.latencies.append(elapsed)
        (tally.traced if traced else tally.untraced).append(elapsed)
        tally.pending.append((entry, verdicts))

    def cycle() -> Iterator:
        while True:
            yield from pool

    tally.attempted, tally.elapsed = closed_loop(cycle(), seconds, run_one,
                                                 between)


def check_cold(tally: Tally) -> None:
    expected: dict = {}
    for entry, verdicts in tally.pending:
        key = id(entry)
        if key not in expected:
            expected[key] = cold_expected(entry)
        if verdicts != expected[key]:
            tally.fail("wrong_verdict")
    tally.pending.clear()


def lp_backend_description() -> dict:
    """What ``/v1/version`` reports for the default engine config."""
    from repro.engine.config import EngineConfig
    from repro.linear.backends import describe_backend, get_backend

    spec = EngineConfig().lp_backend
    description = describe_backend(get_backend(spec))
    return {"spec": spec, "name": description.name,
            "capabilities": description.capabilities.as_dict()}


def run_cold_untraced(seed: int, seconds: float) -> dict:
    """Set-up and timed phase in a fresh worker process.  At each pause of
    the worker's timed phase a probe worker times another set-up."""
    import json

    def spawn(mode: str) -> tuple:
        """Start a worker; ``(process, seconds until it is ready)``."""
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "cold_worker.py"),
             "--seed", str(seed), "--seconds", str(seconds), "--mode", mode],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stdin=subprocess.PIPE, text=True)
        line = process.stdout.readline()
        ready = time.perf_counter() - started
        if not line.startswith('{"ready"'):
            process.kill()
            process.communicate()
            raise SetupError(f"cold worker failed to start: {line!r}")
        return process, ready

    worker, ready = spawn("run")
    setups = [ready]
    try:
        line = worker.stdout.readline()
        while line.startswith('{"paused"'):
            probe, ready = spawn("probe")
            probe.communicate()
            setups.append(ready)
            worker.stdin.write("\n")
            worker.stdin.flush()
            line = worker.stdout.readline()
        worker.wait(timeout=60)
    finally:
        if worker.poll() is None:
            worker.kill()
        worker.communicate()
    if worker.returncode != 0 or not line.startswith("{"):
        raise SetupError(f"cold worker exited with {worker.returncode}")
    result = json.loads(line)
    result["setups"] = setups
    return result


def run_cold_traced(seed: int, seconds: float, recorder) -> tuple:
    from inputs import cold_check_inputs

    pool = cold_check_inputs(seed)
    tally = Tally()
    cold_loop(pool, seconds, tally, recorder, random.Random(seed))
    check_cold(tally)
    return tally, lp_backend_description()


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
class QueryLoad:
    """``scan_query``: POST /v1/query by schema_ref."""

    name = "taxonomy"

    def __init__(self, seed: int):
        from inputs import query_inputs
        from oracles import ChaseOracle

        self.inputs = query_inputs(seed)
        self._oracle = ChaseOracle(self.inputs.schema)
        self._chased: dict = {}

    def setup_requests(self) -> list[Request]:
        return [Request("write", "PUT", f"/v1/schemas/{self.name}",
                        {"schema": self.inputs.source}),
                # The warm-up builds the closure index, once per process.
                Request("query", "POST", "/v1/query",
                        {"schema_ref": self.name, "query": "q(x) :- T(x)"})]

    def requests(self) -> Iterator[Request]:
        for text, database in self.inputs.ops:
            yield Request("query", "POST", "/v1/query", {
                "schema_ref": self.name, "query": text,
                "database": self.inputs.databases[database]},
                expect=(text, database))

    def check(self, expect, data: dict) -> bool:
        """The answers must equal the certain answers of the full chase."""
        text, database = expect
        if database not in self._chased:
            self._chased[database] = self._oracle.chase(
                self.inputs.databases[database])
        answers = data.get("answers")
        if data.get("inconsistent") is not False \
                or not isinstance(answers, list):
            return False
        return ({tuple(row) for row in answers}
                == self._oracle.answers(text, self._chased[database]))


class RegistryLoad:
    """``registry_edit``: a single-cluster PUT, then satisfiable reads."""

    def __init__(self, seed: int):
        from inputs import registry_inputs

        self.fleet, self.plan = registry_inputs(seed)
        self._verdicts: dict = {}

    @staticmethod
    def _tenant(entry) -> dict:
        return {"X-Repro-Tenant": entry.tenant}

    def setup_requests(self) -> list[Request]:
        puts = [Request("write", "PUT", f"/v1/schemas/{entry.name}",
                        {"schema": entry.sources[0]}, self._tenant(entry))
                for entry in self.fleet]
        warm = [Request("read", "POST", "/v1/satisfiable",
                        {"schema_ref": entry.name,
                         "class": entry.classes[0]}, self._tenant(entry))
                for entry in self.fleet]
        return puts + warm

    def requests(self) -> Iterator[Request]:
        for step in self.plan:
            entry = self.fleet[step.slot]
            yield Request("write", "PUT", f"/v1/schemas/{entry.name}",
                          {"schema": entry.sources[step.variant]},
                          self._tenant(entry), expect=("write",))
            for name in step.reads:
                yield Request("read", "POST", "/v1/satisfiable",
                              {"schema_ref": entry.name, "class": name},
                              self._tenant(entry),
                              expect=("read", step.slot, step.variant, name))

    def check(self, expect, data: dict) -> bool:
        if expect[0] == "write":
            report = data.get("revalidation", {})
            return (isinstance(data.get("schema", {}).get("version"), int)
                    and report.get("mode") in ("delta", "fresh"))
        _, slot, variant, name = expect
        if (slot, variant) not in self._verdicts:
            from oracles import isa_only_verdicts

            self._verdicts[(slot, variant)] = isa_only_verdicts(
                self.fleet[slot].variants[variant])
        return data.get("verdict") is self._verdicts[(slot, variant)][name]


def make_load(workload: str, seed: int):
    if workload == "registry_edit":
        return RegistryLoad(seed)
    return QueryLoad(seed)


def _issue(client, request: Request):
    status, payload, seconds = client.call(
        request.method, request.path, request.document, request.headers)
    ok = 200 <= status < 300 and valid_envelope(payload)
    return ok, status, payload, seconds


def run_setup(client, load, recorder=None) -> None:
    """The set-up requests (PUTs and one warm-up per schema), traced as
    the set-up operation when a recorder is given."""
    from tracing import SETUP_OP

    for request in load.setup_requests():
        if recorder is None:
            ok, status, payload, _ = _issue(client, request)
        else:
            with recorder.operation(SETUP_OP, request.kind, True):
                ok, status, payload, _ = _issue(client, request)
        if not ok:
            raise SetupError(f"set-up {request.method} {request.path} "
                             f"answered {status}: {payload!r}")


def http_loop(client, load, seconds: float, tally: Tally,
              recorder=None, rng: Optional[random.Random] = None,
              between: Optional[Callable[[], None]] = None) -> None:
    def run_one(index: int, request: Request) -> None:
        traced = recorder is not None and rng.random() < 0.5
        if recorder is None:
            ok, status, payload, seconds_taken = _issue(client, request)
        else:
            with recorder.operation(index, request.kind, traced):
                ok, status, payload, seconds_taken = _issue(client, request)
        if request.kind == "write":
            tally.writes.append(seconds_taken)
        else:
            tally.latencies.append(seconds_taken)
            (tally.traced if traced else tally.untraced).append(
                seconds_taken)
        if not ok:
            tally.fail("transport" if status == 0 else f"status_{status}"
                       if not 200 <= status < 300 else "envelope")
            return
        data = payload["data"]
        if "cache" in data:
            tally.cache[data["cache"]] += 1
        report = data.get("revalidation")
        if isinstance(report, dict):
            clusters = report.get("clusters", {})
            blocks = report.get("support_blocks", {})
            tally.reuse["clusters_reused"] += clusters.get("reused", 0)
            tally.reuse["clusters_total"] += clusters.get("total", 0)
            tally.reuse["blocks_reused"] += blocks.get("reused", 0)
            tally.reuse["blocks_solved"] += blocks.get("solved", 0)
        tally.pending.append((request.expect, data))

    tally.attempted, tally.elapsed = closed_loop(load.requests(), seconds,
                                                 run_one, between)


def check_http(load, tally: Tally) -> None:
    for expect, data in tally.pending:
        if not load.check(expect, data):
            tally.fail("wrong_answer")
    tally.pending.clear()


def run_http_untraced(workload: str, seed: int, seconds: float,
                      started: float) -> tuple:
    """Boot a server, set it up and measure on it.  At each pause of the
    timed phase another server is booted and set up, to time set-up
    again, and stopped."""
    from service import Client, ServerProcess

    require_program()
    load = make_load(workload, seed)
    generated = time.perf_counter() - started
    logs = OUT_DIR / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    setups: list[float] = []
    tally = Tally()

    def boot() -> tuple:
        booted = time.perf_counter()
        server = ServerProcess(scratch_dir("artifacts"),
                               logs / f"serve-{workload}-{seed}.log")
        client = Client(server.host, server.port)
        try:
            run_setup(client, load)
        except BaseException:
            client.close()
            server.stop()
            raise
        setups.append(generated + time.perf_counter() - booted)
        return server, client

    def probe() -> None:
        server, client = boot()
        client.close()
        server.stop()

    server, client = boot()
    try:
        http_loop(client, load, seconds, tally, between=probe)
        status, payload, _ = client.call("GET", "/v1/version")
        if status != 200 or not valid_envelope(payload):
            raise SetupError(f"/v1/version answered {status}")
        backend = payload["data"]["lp_backend"]
        peak_rss = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()
    check_http(load, tally)
    return tally, setups, peak_rss, backend


def run_http_traced(workload: str, seed: int, seconds: float,
                    recorder) -> tuple:
    """The same operations against an in-process service."""
    from repro.engine.config import EngineConfig
    from repro.service.app import ReproService, ServiceConfig
    from service import Client

    load = make_load(workload, seed)
    service = ReproService(
        ServiceConfig(host="127.0.0.1", port=0),
        EngineConfig(artifact_dir=str(scratch_dir("artifacts"))))
    host, port = service.start()
    client = Client(host, port)
    tally = Tally()
    try:
        run_setup(client, load, recorder)
        http_loop(client, load, seconds, tally, recorder,
                  random.Random(seed))
        status, payload, _ = client.call("GET", "/v1/version")
        backend = payload["data"]["lp_backend"] if status == 200 else None
    finally:
        client.close()
        service.drain()
    check_http(load, tally)
    return tally, backend


def latency_summary(tally: Tally) -> dict:
    """Milliseconds; empty samples read 0."""
    def ms(values, q):
        return percentile(values, q) * 1000.0 if values else 0.0

    return {
        "latency_p50_ms": ms(tally.latencies, 50),
        "latency_p90_ms": ms(tally.latencies, 90),
        "write_p50_ms": ms(tally.writes, 50),
        "write_p90_ms": ms(tally.writes, 90),
        "ops_per_s": (tally.attempted / tally.elapsed
                      if tally.elapsed else 0.0),
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "samples": len(tally.latencies),
        "write_samples": len(tally.writes),
        "result_cache_hit_ratio": (
            tally.cache["hit"] / sum(tally.cache.values())
            if tally.cache else 0.0),
    }


def trace_overhead(tally: Tally) -> dict:
    """Mean latency of the traced and the untraced half of the operations
    (a seeded coin picks the half, so both see the same input mix)."""
    def mean_ms(values) -> float:
        return sum(values) / len(values) * 1000.0 if values else 0.0

    traced, untraced = mean_ms(tally.traced), mean_ms(tally.untraced)
    return {
        "trace.traced_mean_ms": traced,
        "trace.untraced_mean_ms": untraced,
        "trace.overhead_ratio": (traced / untraced - 1.0
                                 if untraced else 0.0),
    }
