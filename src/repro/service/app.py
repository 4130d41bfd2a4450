"""The query service application: routing, envelope, budgets, lifecycle.

``repro serve`` keeps one process alive answering schema-reasoning
queries over HTTP, so the expensive parts of the paper's decision
procedure — Theorem 3.3's expansion + support computation, warm in a
:class:`~repro.engine.session.SchemaSession` — are paid once and amortized
across requests instead of once per CLI invocation.

Request flow (see ``docs/architecture.md``)::

    asyncio accept/parse → fast path (introspection, warm cache hits)
         (wire layer)     → worker pool → admission → result cache
                                (429/503)    (hit: done)
                          → SchemaSession under Budget (504 on trip)

* **Admission** (:mod:`repro.service.admission`): bounded in-flight
  execution and a bounded wait queue; overload is turned away at the door
  with 429 + ``Retry-After``, oversized bodies with 413 — the reasoner
  never sees work the service cannot afford.  Time spent waiting in the
  admission queue is charged against the request's own budget.
* **Result cache** (an :class:`~repro.core.lru.LruMemo` named
  ``service.result_cache``): completed verdicts keyed by
  ``(schema_fingerprint, formula)``; a repeat query never touches a
  reasoner — and via :meth:`ReproService.try_fast_dispatch` it is
  answered directly on the event loop, skipping the worker pool.
* **Artifact cache**: when the engine config carries an ``artifact_dir``
  (``repro serve`` defaults it on, ``--no-artifact-cache`` turns it off),
  session misses rehydrate precompiled
  :class:`~repro.engine.artifact.CompiledSchema` snapshots from disk
  instead of rebuilding Phase 1/2 — so a freshly booted (or restarted)
  service answers warm for every schema it has ever compiled.
* **Budgets**: every reasoning request runs under a per-request
  :class:`~repro.core.budget.Budget` assembled from the
  ``X-Repro-Timeout-Ms`` / ``X-Repro-Max-Steps`` headers, clamped by the
  server-side caps — a client can ask for *less* time than the server
  allows, never more.  A tripped budget is HTTP 504 carrying the partial
  stats, per Theorem 4.1: the service cannot promise to finish, but it
  promises to stop.
* **Lifecycle**: ``/healthz`` is process liveness, ``/readyz`` flips to
  503 the moment draining starts, and :meth:`ReproService.drain` stops
  accepting, waits for in-flight work, then closes the session pool —
  the SIGTERM path of ``repro serve``.

**The v1 envelope.**  Every JSON body the service emits — success,
error, metrics, registry, even the wire layer's protocol errors — is
built by one serializer (:meth:`ReproService._envelope`) and has exactly
one of two shapes::

    {"api_version": 1, "request_id": "...", "ok": true,  "data": {...}}
    {"api_version": 1, "request_id": "...", "ok": false, "error":
        {"code": "budget_exceeded", "sysexit": 75, "message": "...",
         "retry_after_ms": 1000?, ...detail}}

``error.code`` is a stable snake_case token (the
:mod:`repro.core.errors` class name for typed failures, a wire-level
token such as ``headers_too_large`` otherwise); ``error.sysexit`` is the
exit code ``repro`` CLI commands would terminate with for the same
failure, keeping the two surfaces pinned to one table
(:data:`repro.service.http.HTTP_STATUS_BY_EXIT`).  ``GET /v1/version``
reports the envelope version next to every other schema version the
process speaks.

The application logic is socket-free: :meth:`ReproService.dispatch` maps
``(method, path, headers, body)`` to a
:class:`~repro.service.http.ServiceResponse`, so tests drive it directly
and the wire layer stays a thin shell.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..core.budget import Budget, use_budget
from ..core.errors import BudgetExceeded, CarError, ParseError
from ..core.lru import LruMemo
from ..engine.artifact import ARTIFACT_SCHEMA_VERSION
from ..engine.config import EngineConfig
from ..engine.executor import BatchExecutor
from ..engine.session import SchemaSession, schema_fingerprint
from ..engine.stats import STATS_SCHEMA_VERSION
from ..obs.tracer import TRACE_SCHEMA_VERSION, Tracer, use_tracer
from ..registry import RegistryConfig, SchemaRegistry
from .admission import AdmissionController, AdmissionRejected
from .http import AsyncServiceServer, ServiceResponse, new_request_id, \
    status_for_exit_code
from .metrics import LatencyHistogram

__all__ = ["API_VERSION", "ServiceConfig", "ReproService"]

#: The wire-envelope version every response carries.
API_VERSION = 1

#: sysexit for wire-level failures that have no CarError behind them.
_PROTOCOL_SYSEXITS = {400: 64, 404: 67, 405: 64, 408: 64, 413: 77,
                      429: 69, 431: 64, 501: 64, 503: 69, 504: 75}


def _snake(name: str) -> str:
    """``BudgetExceeded`` → ``budget_exceeded`` (the envelope code)."""
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name).lower()


@dataclass(frozen=True)
class ServiceConfig:
    """Every server-side knob of the query service, in one frozen value.

    Parameters
    ----------
    host / port:
        Bind address; port 0 binds an ephemeral port (tests, benchmarks).
    max_inflight / queue_depth / queue_timeout_s:
        Admission bounds: concurrent executions, waiting requests, and the
        longest a request may wait for a slot before 429.
    workers:
        Worker-pool threads running :meth:`ReproService.dispatch` behind
        the asyncio front end; 0 (the default) sizes the pool
        automatically as ``max_inflight + 2`` — enough to saturate
        admission with two threads to spare for introspection.
    pipeline_depth:
        How many requests one connection may have parsed-but-unanswered;
        the wire layer stops reading a connection that gets further ahead.
    idle_timeout_s:
        Connections idle (or trickling — slow-loris) longer than this are
        closed.
    max_header_bytes:
        Request lines and header blocks above this answer 431.
    max_body_bytes:
        Request bodies larger than this are rejected with 413 from their
        ``Content-Length`` alone.
    cache_limit:
        Entry bound of the ``(fingerprint, formula)`` result cache.
    max_timeout_ms / default_timeout_ms:
        Per-request wall-clock budget cap and default (None = no default
        deadline).  Client headers are clamped to the cap.
    max_steps_cap / default_max_steps:
        Same two knobs for the cooperative step budget.
    max_batch_queries / max_batch_jobs:
        Size and parallelism bounds of ``POST /v1/batch``.
    drain_grace_s:
        How long :meth:`ReproService.drain` waits for in-flight requests.
    """

    host: str = "127.0.0.1"
    port: int = 8750
    max_inflight: int = 8
    queue_depth: int = 16
    queue_timeout_s: float = 0.5
    workers: int = 0
    pipeline_depth: int = 16
    idle_timeout_s: float = 30.0
    max_header_bytes: int = 32_768
    max_body_bytes: int = 1_000_000
    cache_limit: int = 1024
    max_timeout_ms: int = 30_000
    default_timeout_ms: Optional[int] = None
    max_steps_cap: int = 100_000_000
    default_max_steps: Optional[int] = None
    max_batch_queries: int = 1000
    max_batch_jobs: int = 8
    drain_grace_s: float = 10.0
    #: Per-tenant quotas of the schema registry (``/v1/schemas``).
    registry: RegistryConfig = field(default_factory=RegistryConfig)

    def __post_init__(self) -> None:
        for name in ("max_inflight", "pipeline_depth", "max_header_bytes",
                     "max_body_bytes", "cache_limit", "max_timeout_ms",
                     "max_steps_cap", "max_batch_queries",
                     "max_batch_jobs"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if self.queue_depth < 0 or self.workers < 0:
            raise ValueError("queue_depth and workers must be >= 0")
        if self.queue_timeout_s < 0 or self.drain_grace_s < 0:
            raise ValueError("timeouts must be >= 0")
        if self.idle_timeout_s <= 0:
            raise ValueError(
                f"idle_timeout_s must be > 0, got {self.idle_timeout_s}")

    @property
    def effective_workers(self) -> int:
        """The worker-pool size after resolving ``workers=0`` (auto)."""
        return self.workers if self.workers else self.max_inflight + 2


class ReproService:
    """The long-running query service over one warm schema session.

    Use as a context manager in tests and benchmarks::

        with ReproService(ServiceConfig(port=0)) as service:
            ...  # service.port is the bound ephemeral port

    ``engine_config`` configures the underlying session.  The service
    owns one :class:`~repro.obs.tracer.Tracer` (:attr:`tracer`, the
    counters of ``/metrics``) and installs it around every dispatch, so
    each layer a request reaches records into it.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 engine_config: Optional[EngineConfig] = None):
        self.config = config if config is not None else ServiceConfig()
        self.session = SchemaSession(engine_config)
        self.tracer = Tracer()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.queue_depth,
            queue_timeout=self.config.queue_timeout_s)
        # Verdicts and query answers, keyed by (schema fingerprint,
        # canonical formula or query).  Only completed answers are cached:
        # a budget trip depends on the client's budget, and an internal
        # error must not become sticky.
        self.cache = LruMemo(self.config.cache_limit, "service.result_cache",
                             gauge=True)
        self.registry = SchemaRegistry(self.session, self.config.registry)
        self.latency = LatencyHistogram()
        self._schema_memo = LruMemo(limit=max(
            16, min(self.config.cache_limit, 256)))
        self._formula_memo = LruMemo(limit=max(
            16, min(self.config.cache_limit, 1024)))
        self._epoch = time.monotonic()
        self._ready = threading.Event()
        self._draining = threading.Event()
        self._server: Optional[AsyncServiceServer] = None
        self.host = self.config.host
        self.port = self.config.port

    # ------------------------------------------------------------------
    # The envelope: the one serializer every response goes through
    # ------------------------------------------------------------------
    def _envelope(self, request_id: str, *, ok: bool, data=None,
                  error: Optional[dict] = None) -> dict:
        document = {"api_version": API_VERSION, "request_id": request_id,
                    "ok": ok}
        if ok:
            document["data"] = data
        else:
            document["error"] = error
        return document

    def _ok(self, status: int, request_id: str, data,
            headers: tuple = ()) -> ServiceResponse:
        return ServiceResponse(
            status, self._envelope(request_id, ok=True, data=data),
            headers=headers)

    def _fail(self, status: int, request_id: str, code: str, message: str,
              *, sysexit: Optional[int] = None,
              retry_after_s: Optional[int] = None,
              detail: Optional[dict] = None,
              close: bool = False) -> ServiceResponse:
        if sysexit is None:
            sysexit = _PROTOCOL_SYSEXITS.get(status, 70)
        error = {"code": code, "sysexit": sysexit, "message": message}
        headers: tuple = ()
        if retry_after_s is not None:
            error["retry_after_ms"] = retry_after_s * 1000
            headers = (("Retry-After", str(retry_after_s)),)
        if detail:
            error.update(detail)
        return ServiceResponse(
            status, self._envelope(request_id, ok=False, error=error),
            headers=headers, close=close)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    #: route table: path → {method → handler attribute name}
    _ROUTES: Mapping[str, Mapping[str, str]] = {
        "/healthz": {"GET": "_healthz"},
        "/readyz": {"GET": "_readyz"},
        "/metrics": {"GET": "_metrics"},
        "/v1/version": {"GET": "_version"},
        "/v1/satisfiable": {"POST": "_satisfiable"},
        "/v1/classify": {"POST": "_classify"},
        "/v1/query": {"POST": "_query"},
        "/v1/batch": {"POST": "_batch"},
    }

    def dispatch(self, method: str, path: str, headers: Mapping[str, str],
                 body: bytes) -> ServiceResponse:
        """Answer one request: the socket-free application entry point."""
        start = time.perf_counter()
        request_id = new_request_id()
        self.tracer.add("service.requests")
        with use_tracer(self.tracer), self.tracer.span("service.request"):
            response = self._route(method, path, headers, body, request_id)
        return self._finish(response, start)

    def try_fast_dispatch(self, method: str, path: str,
                          headers: Mapping[str, str],
                          body: bytes) -> Optional[ServiceResponse]:
        """Answer on the event loop when no reasoning is needed, else None.

        The wire layer calls this before paying the worker-pool hop.  Two
        request families qualify: GETs (introspection and registry reads
        — bounded, lock-cheap work) and ``POST /v1/satisfiable`` bodies
        whose verdict is already in the result cache (the parse memos
        make re-deriving the cache key nearly free).  Anything else —
        including any fast-path hiccup — returns None and takes the full
        dispatch path on a worker.
        """
        if method == "GET":
            return self.dispatch(method, path, headers, body)
        target, _, _ = path.partition("?")
        if method != "POST" or target != "/v1/satisfiable" \
                or len(body) > 65_536 or self._draining.is_set():
            return None
        with use_tracer(self.tracer):
            data = self._peek_cached_verdict(headers, body)
        if data is None:
            return None
        start = time.perf_counter()
        request_id = new_request_id()
        self.tracer.add("service.requests")
        self.tracer.add("service.fast_path_hits")
        return self._finish(self._ok(200, request_id, data), start)

    def _peek_cached_verdict(self, headers: Mapping[str, str],
                             body: bytes) -> Optional[dict]:
        """The satisfiable fast path: a cached verdict's data, or None.

        Deliberately conservative — any parse error, unknown ref, or
        cache miss returns None so the worker-path handler produces the
        authoritative response (and its errors).
        """
        try:
            document = json.loads(body.decode("utf-8") or "{}")
            if not isinstance(document, dict):
                return None
            if "X-Repro-Tenant" in headers:
                document.setdefault("tenant", headers["X-Repro-Tenant"])
            text = document.get("formula", document.get("class"))
            if not isinstance(text, str) or not text.strip():
                return None
            fingerprint, _ = self._schema_of(document)
            _, formula_key = self._memo_formula(text)
        except Exception:  # noqa: BLE001 - fall back to the full path
            return None
        # A probe: a miss here is counted by the worker path that follows.
        verdict = self.cache.get((fingerprint, formula_key), count_miss=False)
        if verdict is None:
            return None
        return {"verdict": verdict, "cache": "hit",
                "schema_fingerprint": fingerprint, "formula": formula_key}

    _STATUS_CLASS_COUNTERS = {
        klass: f"service.responses_{klass}xx" for klass in range(1, 6)}

    def _finish(self, response: ServiceResponse,
                start: float) -> ServiceResponse:
        self.tracer.add(self._STATUS_CLASS_COUNTERS[response.status // 100])
        self.latency.observe(time.perf_counter() - start)
        return response

    def protocol_error(self, status: int, code: str,
                       message: str) -> ServiceResponse:
        """The wire layer's envelope for requests that never parsed
        (431/413/400/501): counted, enveloped, connection-closing."""
        start = time.perf_counter()
        request_id = new_request_id()
        self.tracer.add("service.requests")
        return self._finish(
            self._fail(status, request_id, code, message, close=True),
            start)

    def overloaded(self) -> ServiceResponse:
        """The wire layer's 429 when the worker pool's feed is full.

        Admission inside the pool bounds *reasoning*; this bounds the
        number of dispatches waiting for a pool thread at all, so extreme
        connection counts degrade into instant 429s instead of an
        unbounded executor queue.
        """
        start = time.perf_counter()
        request_id = new_request_id()
        self.tracer.add("service.requests")
        return self._finish(
            self._fail(429, request_id, "overloaded",
                       "worker pool backlog is full", retry_after_s=1),
            start)

    def _route(self, method: str, path: str, headers: Mapping[str, str],
               body: bytes, request_id: str) -> ServiceResponse:
        path, _, query = path.partition("?")
        methods = self._ROUTES.get(path)
        if methods is None:
            if path == "/v1/schemas" or path.startswith("/v1/schemas/"):
                return self._route_registry(method, path, headers, body,
                                            request_id, query=query)
            return self._fail(404, request_id, "not_found",
                              f"no route for {path!r}")
        name = methods.get(method)
        if name is None:
            response = self._fail(
                405, request_id, "method_not_allowed",
                f"{method} not allowed on {path}")
            response.headers = (("Allow", ", ".join(sorted(methods))),)
            return response
        handler = getattr(self, name)
        if method == "GET":
            return handler(request_id)
        return self._run_admitted(handler, headers, body, request_id)

    def _route_registry(self, method: str, path: str,
                        headers: Mapping[str, str], body: bytes,
                        request_id: str, query: str = "") -> ServiceResponse:
        """Route the ``/v1/schemas`` family (the one path-param tree).

        ====================================  ===========================
        route                                 handler
        ====================================  ===========================
        ``GET    /v1/schemas``                tenant's schema listing
        ``PUT    /v1/schemas/{name}``         store + revalidate a version
        ``GET    /v1/schemas/{name}``         latest (or ``?version=N``)
        ``DELETE /v1/schemas/{name}``         drop a schema (or version)
        ``GET    /v1/schemas/{name}/versions``  the version history
        ``POST   /v1/schemas/{name}/pin``     pin/unpin one version
        ====================================  ===========================

        The tenant comes from the ``X-Repro-Tenant`` header (falling back
        to the configured default).  Reads run unadmitted, like the other
        GETs; writes go through the same drain/size/JSON/admission
        prologue as the reasoning endpoints.
        """
        tenant = headers.get("X-Repro-Tenant")
        parts = [part for part in path.split("/") if part][1:]  # drop v1
        tail = parts[1:]  # after "schemas"
        allowed: tuple[str, ...] = ()
        if not tail:
            allowed = ("GET",)
            if method == "GET":
                return self._registry_guarded(
                    request_id, lambda: {"schemas":
                                         self.registry.list(tenant=tenant)})
        elif len(tail) == 1:
            name = tail[0]
            allowed = ("DELETE", "GET", "PUT")
            if method == "GET":
                def produce():
                    version = self._query_version(query)
                    return {"schema": self.registry.get(
                        name, tenant=tenant, version=version).summary()}
                return self._registry_guarded(request_id, produce)
            if method == "PUT":
                return self._run_admitted(
                    self._registry_put_handler(name, tenant),
                    headers, body, request_id)
            if method == "DELETE":
                return self._run_admitted(
                    self._registry_delete_handler(name, tenant),
                    headers, body, request_id)
        elif len(tail) == 2 and tail[1] == "versions":
            name = tail[0]
            allowed = ("GET",)
            if method == "GET":
                return self._registry_guarded(
                    request_id, lambda: {
                        "name": name,
                        "versions": [v.summary() for v in
                                     self.registry.versions(
                                         name, tenant=tenant)]})
        elif len(tail) == 2 and tail[1] == "pin":
            name = tail[0]
            allowed = ("POST",)
            if method == "POST":
                return self._run_admitted(
                    self._registry_pin_handler(name, tenant),
                    headers, body, request_id)
        if allowed:
            response = self._fail(
                405, request_id, "method_not_allowed",
                f"{method} not allowed on {path}")
            response.headers = (("Allow", ", ".join(allowed)),)
            return response
        return self._fail(404, request_id, "not_found",
                          f"no route for {path!r}")

    @staticmethod
    def _query_version(query: str) -> Optional[int]:
        """The ``version=N`` query parameter, validated, or None."""
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key != "version":
                continue
            if not value.isdigit() or int(value) < 1:
                raise ParseError(f"query parameter 'version' must be a "
                                 f"positive integer, got {value!r}")
            return int(value)
        return None

    def _registry_guarded(self, request_id: str,
                          produce) -> ServiceResponse:
        """A registry read with typed errors mapped (GETs skip
        :meth:`_run_admitted`, so the mapping happens here)."""
        start = time.perf_counter()
        try:
            data = produce()
        except CarError as exc:
            return self._error_response(exc, start, request_id)
        return self._ok(200, request_id, data)

    def _registry_put_handler(self, name: str, tenant: Optional[str]):
        def handler(document: dict, deadline: Optional[float],
                    max_steps: Optional[int],
                    request_id: str) -> ServiceResponse:
            source = self._required_str(document, "schema")
            budget = (Budget(deadline, max_steps)
                      if deadline is not None or max_steps is not None
                      else None)
            with use_budget(budget):
                version, report = self.registry.put(
                    name, source, tenant=tenant)
            status = 200 if report.mode == "unchanged" else 201
            return self._ok(status, request_id, {
                "schema": version.summary(),
                "revalidation": report.to_json()})
        return handler

    def _registry_delete_handler(self, name: str, tenant: Optional[str]):
        def handler(document: dict, deadline: Optional[float],
                    max_steps: Optional[int],
                    request_id: str) -> ServiceResponse:
            version = document.get("version")
            if version is not None and (not isinstance(version, int)
                                        or version < 1):
                raise ParseError(f"delete 'version' must be a positive "
                                 f"integer, got {version!r}")
            removed = self.registry.delete(
                name, tenant=tenant, version=version,
                drop_artifacts=bool(document.get("drop_artifacts", False)))
            return self._ok(200, request_id, {
                "name": name, "removed_versions": removed})
        return handler

    def _registry_pin_handler(self, name: str, tenant: Optional[str]):
        def handler(document: dict, deadline: Optional[float],
                    max_steps: Optional[int],
                    request_id: str) -> ServiceResponse:
            version = document.get("version")
            if not isinstance(version, int) or version < 1:
                raise ParseError(f"pin body needs a positive integer "
                                 f"'version', got {version!r}")
            entry = self.registry.pin(
                name, version, tenant=tenant,
                pinned=bool(document.get("pinned", True)))
            return self._ok(200, request_id, {"schema": entry.summary()})
        return handler

    def _run_admitted(self, handler, headers: Mapping[str, str],
                      body: bytes, request_id: str) -> ServiceResponse:
        """The POST prologue: drain gate, size gate, JSON, budget,
        admission — then the endpoint handler, with errors mapped."""
        if self._draining.is_set():
            return self._fail(503, request_id, "draining",
                              "service is shutting down", retry_after_s=1)
        if len(body) > self.config.max_body_bytes:
            self.tracer.add("service.rejected_body_too_large")
            return self._fail(
                413, request_id, "payload_too_large",
                f"request body exceeds {self.config.max_body_bytes} bytes")
        try:
            document = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return self._fail(400, request_id, "bad_request",
                              f"request body is not valid JSON: {exc}")
        if not isinstance(document, dict):
            return self._fail(400, request_id, "bad_request",
                              "request body must be a JSON object")
        if "X-Repro-Tenant" in headers:
            document.setdefault("tenant", headers["X-Repro-Tenant"])
        try:
            deadline, max_steps = self._budget_from(headers)
        except ValueError as exc:
            return self._fail(400, request_id, "bad_request", str(exc))
        try:
            waited = self.admission.acquire()
        except AdmissionRejected as exc:
            return self._fail(
                429, request_id, "admission_rejected", str(exc),
                sysexit=69, retry_after_s=exc.retry_after,
                detail={"reason": exc.reason})
        start = time.perf_counter()
        try:
            # The queue wait already spent part of this request's life:
            # charge it, so waiting ~its whole X-Repro-Timeout-Ms cannot
            # buy a full budget after admission.
            if deadline is not None and waited > 0:
                deadline -= waited
                if deadline <= 0:
                    raise BudgetExceeded(
                        f"deadline exhausted after {waited:.3f}s in the "
                        f"admission queue", steps=0)
            return handler(document, deadline, max_steps, request_id)
        except CarError as exc:
            return self._error_response(exc, start, request_id)
        except Exception as exc:  # noqa: BLE001 - the service must answer
            self.tracer.add("service.internal_errors")
            return self._fail(
                500, request_id, "internal_error",
                f"{type(exc).__name__}: {exc}", sysexit=70)
        finally:
            self.admission.release()

    def _budget_from(self, headers: Mapping[str, str]
                     ) -> tuple[Optional[float], Optional[int]]:
        """The per-request budget: client headers clamped by server caps.

        Returns ``(deadline_seconds, max_steps)``; either may be None
        (no bound requested and no server default).
        """
        timeout_ms = self._header_int(headers, "X-Repro-Timeout-Ms",
                                      self.config.default_timeout_ms)
        max_steps = self._header_int(headers, "X-Repro-Max-Steps",
                                     self.config.default_max_steps)
        if timeout_ms is not None:
            timeout_ms = min(timeout_ms, self.config.max_timeout_ms)
        if max_steps is not None:
            max_steps = min(max_steps, self.config.max_steps_cap)
        deadline = timeout_ms / 1000.0 if timeout_ms is not None else None
        return deadline, max_steps

    @staticmethod
    def _header_int(headers: Mapping[str, str], name: str,
                    default: Optional[int]) -> Optional[int]:
        raw = headers.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {raw!r}") \
                from None
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
        return value

    def _error_response(self, exc: CarError, start: float,
                        request_id: str) -> ServiceResponse:
        """Map a typed failure onto the stable sysexits→HTTP table.

        A tripped budget (504) carries its partial stats — how many
        hot-loop steps ran and how long — so the client can size a retry.
        A quota refusal (429) carries ``Retry-After``, like admission.
        """
        status = status_for_exit_code(exc.exit_code)
        detail: dict = {}
        if isinstance(exc, BudgetExceeded):
            detail["steps"] = exc.steps
            detail["duration_s"] = round(time.perf_counter() - start, 6)
        return self._fail(
            status, request_id, _snake(type(exc).__name__), str(exc),
            sysexit=exc.exit_code,
            retry_after_s=1 if status == 429 else None, detail=detail)

    # ------------------------------------------------------------------
    # Reasoning endpoints
    # ------------------------------------------------------------------
    def _schema_of(self, document: dict):
        """``(fingerprint, Schema)`` of a query body: a registry
        ``schema_ref`` (``name`` / ``name@version``) resolved for the
        request's tenant to its stored schema, or inline ``schema`` text,
        parsed through the source memo."""
        if "schema_ref" in document and "schema" not in document:
            ref = self._required_str(document, "schema_ref")
            version = self.registry.resolve(ref,
                                            tenant=document.get("tenant"))
            return version.fingerprint, version.schema
        source = self._required_str(document, "schema")
        entry = self._schema_memo.get(source)
        if entry is None:
            from ..parser.parser import parse_schema
            schema = parse_schema(source)
            entry = (schema_fingerprint(schema), schema)
            self._schema_memo.put(source, entry)
        return entry

    def _memo_formula(self, text: str):
        """``(Formula, canonical key)`` for a formula text, memoized."""
        entry = self._formula_memo.get(text)
        if entry is None:
            from ..parser.parser import parse_formula
            formula = parse_formula(text)
            entry = (formula, str(formula))
            self._formula_memo.put(text, entry)
        return entry

    def _satisfiable(self, document: dict, deadline: Optional[float],
                     max_steps: Optional[int],
                     request_id: str) -> ServiceResponse:
        """``POST /v1/satisfiable`` — one formula (or class) verdict.

        Body: ``{"schema": <source>, "formula": <formula text>}`` (or
        ``"class": <name>``); ``{"schema_ref": "name@version"}`` addresses
        a registry entry instead of shipping source.  The result cache is
        consulted *before* any reasoner; misses run through the warm
        session under the request budget and populate it.
        """
        fingerprint, schema = self._schema_of(document)
        if "formula" in document:
            formula_text = self._required_str(document, "formula")
        elif "class" in document:
            formula_text = self._required_str(document, "class")
        else:
            raise ParseError(
                "satisfiable body needs a 'formula' (or 'class') key")
        formula, key = self._memo_formula(formula_text)
        cached = self.cache.get((fingerprint, key))
        if cached is not None:
            return self._ok(200, request_id, {
                "verdict": cached, "cache": "hit",
                "schema_fingerprint": fingerprint, "formula": key})
        outcome = self.session.check_many_detailed(
            schema, [formula], deadline=deadline, max_steps=max_steps,
            collect_stats=False)[0]
        if not outcome.ok:
            detail = {"steps": outcome.steps,
                      "duration_s": round(outcome.duration, 6),
                      "schema_fingerprint": fingerprint}
            return self._fail(
                status_for_exit_code(outcome.error.exit_code), request_id,
                _snake(outcome.error.kind), outcome.error.message,
                sysexit=outcome.error.exit_code, detail=detail)
        self.cache.put((fingerprint, key), outcome.verdict)
        return self._ok(200, request_id, {
            "verdict": outcome.verdict, "cache": "miss",
            "schema_fingerprint": fingerprint, "formula": key,
            "steps": outcome.steps,
            "duration_s": round(outcome.duration, 6)})

    def _query(self, document: dict, deadline: Optional[float],
               max_steps: Optional[int],
               request_id: str) -> ServiceResponse:
        """``POST /v1/query`` — certain answers of a conjunctive query.

        Body: ``{"schema": <source>, "query": "q(x) :- Person(x)"}`` plus
        an optional ``"database"`` document (see
        :func:`~repro.qa.data.database_from_document`);
        ``{"schema_ref": "name@version"}`` addresses a registry entry.
        Answers are cached by ``(schema fingerprint, canonical query,
        database hash)``; the schema's rewrite cache stays warm in the
        session across databases.
        """
        import hashlib as _hashlib

        from ..qa import parse_query
        from ..qa.ast import canonical_query, render_query

        fingerprint, schema = self._schema_of(document)
        query_text = self._required_str(document, "query")
        database = document.get("database")
        if database is not None and not isinstance(database, dict):
            raise ParseError("query 'database' must be a JSON object")
        query = parse_query(query_text, schema)
        key = "cq:" + render_query(canonical_query(query))
        if database is not None:
            key += "|db:" + _hashlib.sha256(
                json.dumps(database, sort_keys=True).encode("utf-8")
            ).hexdigest()[:16]
        cached = self.cache.get((fingerprint, key))
        if cached is not None:
            return self._ok(200, request_id, {
                **cached, "cache": "hit",
                "schema_fingerprint": fingerprint})
        budget = (Budget(deadline, max_steps)
                  if deadline is not None or max_steps is not None
                  else None)
        with use_budget(budget):
            answer = self.session.query(schema, query, database)
        data = answer.as_document()
        self.cache.put((fingerprint, key), data)
        return self._ok(200, request_id, {
            **data, "cache": "miss", "schema_fingerprint": fingerprint})

    def _classify(self, document: dict, deadline: Optional[float],
                  max_steps: Optional[int],
                  request_id: str) -> ServiceResponse:
        """``POST /v1/classify`` — the implied subsumption hierarchy
        (``schema`` source inline, or a registry ``schema_ref``)."""
        _, schema = self._schema_of(document)
        budget = (Budget(deadline, max_steps)
                  if deadline is not None or max_steps is not None
                  else None)
        with use_budget(budget):
            classification = self.session.classify(schema)
        return self._ok(200, request_id, {
            "subsumptions": sorted(map(list,
                                       classification.subsumptions)),
            "equivalence_groups": [sorted(group) for group in
                                   classification.equivalence_groups],
            "unsatisfiable": list(classification.unsatisfiable)})

    def _batch(self, document: dict, deadline: Optional[float],
               max_steps: Optional[int],
               request_id: str) -> ServiceResponse:
        """``POST /v1/batch`` — a heterogeneous query batch through
        :meth:`SchemaSession.run_batch` (budgets are per query)."""
        queries = document.get("queries")
        if not isinstance(queries, list):
            raise ParseError("batch body needs a 'queries' list")
        if len(queries) > self.config.max_batch_queries:
            return self._fail(
                413, request_id, "payload_too_large",
                f"batch of {len(queries)} exceeds the "
                f"{self.config.max_batch_queries}-query bound", sysexit=77)
        tenant = document.get("tenant")
        queries = [self._resolve_batch_query(query, tenant)
                   for query in queries]
        jobs = document.get("jobs", 1)
        mode = document.get("mode", "auto")
        if not isinstance(jobs, int) or jobs < 1:
            raise ParseError(f"batch 'jobs' must be a positive integer, "
                             f"got {jobs!r}")
        if mode not in BatchExecutor.MODES:
            raise ParseError(f"batch 'mode' must be one of "
                             f"{', '.join(BatchExecutor.MODES)}, got {mode!r}")
        outcomes = self.session.run_batch(
            queries, jobs=min(jobs, self.config.max_batch_jobs), mode=mode,
            deadline=deadline, max_steps=max_steps,
            collect_stats=bool(document.get("stats", False)))
        summary = {
            "total": len(outcomes),
            "ok": sum(1 for o in outcomes if o.ok),
            "timed_out": sum(1 for o in outcomes if o.timed_out),
            "failed": sum(1 for o in outcomes
                          if not o.ok and not o.timed_out),
        }
        return self._ok(200, request_id, {
            "summary": summary,
            "outcomes": [o.to_json() for o in outcomes]})

    @staticmethod
    def _required_str(document: dict, key: str) -> str:
        value = document.get(key)
        if not isinstance(value, str) or not value.strip():
            raise ParseError(
                f"request body needs a non-empty {key!r} string")
        return value

    def _resolve_batch_query(self, query, tenant: Optional[str]):
        """One batch query with its ``schema_ref`` replaced by the
        version's stored schema (non-dict and ref-less queries pass
        through untouched).  A ref that does not resolve is passed on as
        the error itself, which becomes that query's outcome."""
        if not isinstance(query, dict) or "schema_ref" not in query \
                or "schema" in query:
            return query
        try:
            version = self.registry.resolve(query["schema_ref"],
                                            tenant=tenant)
        except CarError as exc:
            return exc
        return dict(query, schema=version.schema)

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def _healthz(self, request_id: str) -> ServiceResponse:
        """Liveness: 200 whenever the process can answer at all."""
        return self._ok(200, request_id, {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._epoch, 3)})

    def _readyz(self, request_id: str) -> ServiceResponse:
        """Readiness: 200 only while started and not draining."""
        if self._draining.is_set():
            return self._fail(503, request_id, "draining",
                              "service is shutting down", retry_after_s=1)
        if not self._ready.is_set():
            return self._fail(503, request_id, "starting",
                              "service is still starting", retry_after_s=1)
        return self._ok(200, request_id, {"status": "ready"})

    def _version(self, request_id: str) -> ServiceResponse:
        """``GET /v1/version`` — every schema version this process
        speaks (the wire envelope, compiled artifacts, trace exports,
        stats snapshots) plus the identity of the LP backend answering
        Phase 2, so clients can pin or audit the solver in use."""
        from ..linear.backends import describe_backend, get_backend

        spec = self.session.config.lp_backend
        backend = get_backend(spec)
        description = describe_backend(backend)
        return self._ok(200, request_id, {
            "api_version": API_VERSION,
            "artifact_schema_version": ARTIFACT_SCHEMA_VERSION,
            "trace_schema_version": TRACE_SCHEMA_VERSION,
            "stats_schema_version": STATS_SCHEMA_VERSION,
            "lp_backend": {
                "spec": spec,
                "name": description.name,
                "capabilities": description.capabilities.as_dict(),
            },
        })

    def _metrics(self, request_id: str) -> ServiceResponse:
        """Every counter the service keeps, as one JSON document:
        admission, result cache, latency percentiles, session pipeline
        cache, registry occupancy, tracer bus."""
        return self._ok(200, request_id, {
            "uptime_s": round(time.monotonic() - self._epoch, 3),
            "admission": self.admission.stats().to_json(),
            "result_cache": self.cache.stats().to_json(),
            "latency": self.latency.snapshot(),
            "session": self.session.cache_info().to_json(),
            "registry": self.registry.stats(),
            "counters": dict(sorted(self.tracer.counters.items())),
            "gauges": dict(sorted(self.tracer.gauges.items())),
        })

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind the asyncio front end and start accepting.

        Returns the bound ``(host, port)`` — with ``port=0`` this is where
        the ephemeral port becomes known.
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = AsyncServiceServer(self, self.config.host,
                                          self.config.port)
        self.host, self.port = self._server.start()
        self._ready.set()
        return self.host, self.port

    def drain(self, grace: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight, close.

        Marks the service draining (``/readyz`` flips to 503, new POSTs
        get 503 + ``Retry-After``), closes the listening socket, waits up
        to ``grace`` seconds (default ``config.drain_grace_s``) for
        in-flight requests, then tears down live connections, the worker
        pool, and the session.  Returns True when everything drained in
        time.
        """
        grace = grace if grace is not None else self.config.drain_grace_s
        self._draining.set()
        self._ready.clear()
        if self._server is not None:
            self._server.stop_accepting()
        drained = self.admission.wait_idle(grace)
        if self._server is not None:
            self._server.close()
            self._server = None
        self.session.close()
        return drained

    def __enter__(self) -> "ReproService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()
