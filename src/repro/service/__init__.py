"""`repro.service` — the production query service over warm sessions.

A stdlib-only HTTP service (``repro serve``): an asyncio keep-alive /
pipelining front end (:class:`~repro.service.http.AsyncServiceServer`)
feeding the socket-free application on a worker pool, with admission
control, a fingerprint-keyed result cache (an
:class:`~repro.core.lru.LruMemo`, the one bounded LRU every cache
uses), per-request cooperative budgets, and health/metrics
introspection.  Every JSON body is the versioned v1 envelope
(``api_version`` / ``request_id`` / ``ok`` / ``data``-or-``error``):

========================  ==============================================
endpoint                  answers
========================  ==============================================
``POST /v1/satisfiable``  one formula/class verdict (result-cached)
``POST /v1/classify``     the implied subsumption hierarchy
``POST /v1/batch``        a query batch via ``SchemaSession.run_batch``
``GET /v1/version``       api/artifact/trace/stats schema versions
``GET /healthz``          process liveness
``GET /readyz``           readiness (503 while starting or draining)
``GET /metrics``          admission + cache + latency + tracer counters
========================  ==============================================

See ``docs/api.md`` (Service section) for the envelope contract and
``docs/architecture.md`` for the accept → parse → admission →
worker-pool → drain request flow.
"""

from ..core.lru import LruMemo
from .admission import AdmissionController, AdmissionRejected, AdmissionStats
from .app import API_VERSION, ReproService, ServiceConfig
from .http import AsyncServiceServer, HTTP_STATUS_BY_EXIT, Headers, \
    ServiceResponse, status_for_exit_code
from .metrics import LatencyHistogram

__all__ = [
    "API_VERSION",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionStats",
    "AsyncServiceServer",
    "HTTP_STATUS_BY_EXIT",
    "Headers",
    "LatencyHistogram",
    "LruMemo",
    "ReproService",
    "ServiceConfig",
    "ServiceResponse",
    "status_for_exit_code",
]
