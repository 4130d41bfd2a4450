"""The wire layer of the query service: an asyncio HTTP/1.1 front end.

This module owns everything that touches raw sockets so the application
logic in :mod:`repro.service.app` stays a pure, socket-free function
``(method, path, headers, body) -> ServiceResponse`` that unit tests can
drive directly.

The transport is a single-threaded asyncio event loop
(:func:`asyncio.start_server` plus a hand-rolled HTTP/1.1 parser — no
dependencies) in front of a sized worker pool:

* **Keep-alive and pipelining.**  Connections persist across requests;
  a client may send up to ``ServiceConfig.pipeline_depth`` requests
  before reading a response.  Parsing runs ahead of dispatch, so the
  accept/parse path never waits on the reasoner; responses always come
  back in request order.
* **Self-protection.**  Idle connections (and slow-loris writers) are
  closed after ``idle_timeout_s``; request lines and header blocks above
  ``max_header_bytes`` answer 431; bodies above ``max_body_bytes`` are
  rejected from their ``Content-Length`` alone (413, nothing buffered);
  a transport-level pending bound turns extreme overload into immediate
  429s before work ever reaches the pool's queue.
* **The worker pool.**  Parsed requests run
  :meth:`~repro.service.app.ReproService.dispatch` on a
  ``ThreadPoolExecutor`` of ``ServiceConfig.effective_workers`` threads.
  Requests the application can answer without any reasoning — GET
  introspection and warm result-cache hits — take
  :meth:`~repro.service.app.ReproService.try_fast_dispatch` directly on
  the event loop and skip the pool hop entirely.

Two wire contracts also live here:

* **The error table.**  Every :class:`~repro.core.errors.CarError` carries
  a stable sysexits code; :data:`HTTP_STATUS_BY_EXIT` maps those codes
  onto HTTP statuses, so the CLI's exit codes and the service's response
  statuses are two renderings of one table (a test per exit code pins
  them together):

  ====  ====================================  ===========================
  exit  meaning                               HTTP status
  ====  ====================================  ===========================
  65    malformed input (parse/schema)        422 Unprocessable Entity
  64    unanswerable question                 400 Bad Request
  66    unreadable input                      400 Bad Request
  67    unknown schema/version (registry)     404 Not Found
  69    tenant count quota exhausted          429 Too Many Requests
  73    could not produce the output          500 Internal Server Error
  70    internal inconsistency                500 Internal Server Error
  75    budget tripped                        504 Gateway Timeout
  77    source size quota exceeded            413 Payload Too Large
  ====  ====================================  ===========================

* **The v1 envelope.**  Every response body — including the protocol
  errors this module raises itself — is the versioned envelope built by
  the single serializer in :mod:`repro.service.app`
  (:meth:`ReproService.protocol_error` for wire-level failures); the
  ``request_id`` inside it is echoed in the ``X-Repro-Request-Id``
  header, so logs, traces, and clients correlate on one token.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .app import ReproService

__all__ = [
    "HTTP_STATUS_BY_EXIT",
    "status_for_exit_code",
    "new_request_id",
    "Headers",
    "ServiceResponse",
    "AsyncServiceServer",
]

#: sysexits code (:mod:`repro.core.errors`) → HTTP response status.
HTTP_STATUS_BY_EXIT: dict[int, int] = {
    64: 400,   # ReasoningError — the question itself is bad
    65: 422,   # Parse/Schema/SemanticsError — body understood, input not
    66: 400,   # unreadable input (EX_NOINPUT)
    67: 404,   # RegistryNotFound — no such schema/version
    69: 429,   # RegistryQuotaError — tenant count quota exhausted
    70: 500,   # internal inconsistency (EX_SOFTWARE)
    73: 500,   # SynthesisError — could not produce the output
    75: 504,   # BudgetExceeded — the service declined to keep paying
    77: 413,   # RegistrySizeError — source size quota exceeded
}

#: HTTP status → reason phrase (only the statuses this service emits).
_REASONS: dict[int, str] = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

SERVER_NAME = "repro-service/2.0"


def status_for_exit_code(exit_code: int) -> int:
    """The HTTP status for a sysexits code (unknown codes are 500)."""
    return HTTP_STATUS_BY_EXIT.get(exit_code, 500)


# A random per-process prefix plus a counter: unique like uuid4 for
# correlation purposes, without paying for 16 bytes of os.urandom on
# every request (measurable at warm-cache request rates).
_ID_PREFIX = uuid.uuid4().hex[:8]
_ID_COUNTER = itertools.count(1)


def new_request_id() -> str:
    """A fresh opaque request id (echoed in header and body)."""
    return f"{_ID_PREFIX}{next(_ID_COUNTER) & 0xFFFFFFFF:08x}"


class Headers(Mapping):
    """A case-insensitive, immutable view of one request's headers.

    The application reads canonical spellings (``X-Repro-Timeout-Ms``);
    clients send whatever casing they like.  Plain dicts still satisfy
    the ``Mapping`` the application accepts, so socket-free tests keep
    passing ``{}`` literals.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, str] = ()):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        self._entries = {key.lower(): value for key, value in pairs}

    def __getitem__(self, key: str) -> str:
        return self._entries[key.lower()]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Headers({self._entries!r})"


@dataclass
class ServiceResponse:
    """One application-level response: status, JSON payload, extra headers.

    The payload is rendered with ``json.dumps`` by the wire layer; extra
    headers (``Retry-After`` on 429/503, ...) ride along as pairs.
    ``close`` asks the transport to end the connection after writing —
    set on protocol errors, where request framing can no longer be
    trusted (application errors keep the connection alive).
    """

    status: int
    payload: dict
    headers: tuple[tuple[str, str], ...] = field(default=())
    close: bool = False


class _ProtocolError(Exception):
    """A wire-level failure the server can still answer (431, 413, ...).

    After one of these the connection's framing is unreliable, so the
    response it produces always closes the connection.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class _Hangup(Exception):
    """The client vanished (EOF mid-request, reset): close silently."""


@dataclass
class _Request:
    """One fully parsed request, ready for dispatch."""

    method: str
    target: str
    headers: Headers
    body: bytes
    close: bool  # client asked for Connection: close (or HTTP/1.0)


class AsyncServiceServer:
    """The asyncio front end: accept, parse, pool-dispatch, write.

    The event loop runs on a dedicated background thread so the blocking
    :class:`~repro.service.app.ReproService` lifecycle API (``start`` /
    ``drain`` from signal handlers and tests) stays synchronous.  All
    loop state (connection task set, pending-dispatch counter) is only
    touched from the loop thread; cross-thread entry points go through
    ``call_soon_threadsafe`` / ``run_coroutine_threadsafe``.
    """

    def __init__(self, app: "ReproService", host: str, port: int):
        self.app = app
        self._host = host
        self._port = port
        self.server_address: tuple[str, int] = (host, port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._pool = ThreadPoolExecutor(
            max_workers=app.config.effective_workers,
            thread_name_prefix="repro-worker")
        self._connections: set[asyncio.Task] = set()
        self._pending = 0  # dispatches submitted to the pool, unfinished
        self._pending_limit = (app.config.effective_workers
                               + app.config.queue_depth)
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle (called from foreign threads)
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind and serve on a background event-loop thread.

        Returns the bound ``(host, port)`` — with port 0 this is where
        the ephemeral port becomes known.
        """
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service", daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise self._startup_error
        return self.server_address

    def stop_accepting(self) -> None:
        """Close the listening socket; live connections keep draining."""
        if self._loop is None or self._server is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self._close_listener(), self._loop)
        future.result(timeout=5.0)

    def close(self) -> None:
        """Tear down: cancel connections, stop the loop, join, free pool."""
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop)
            try:
                future.result(timeout=10.0)
            except (TimeoutError, asyncio.TimeoutError):  # pragma: no cover
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5.0)
        self._pool.shutdown(wait=False, cancel_futures=True)

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._server = self._loop.run_until_complete(
                asyncio.start_server(
                    self._serve_connection, self._host, self._port,
                    limit=max(65536, self.app.config.max_header_bytes)))
            bound = self._server.sockets[0].getsockname()
            self.server_address = (bound[0], bound[1])
        except BaseException as exc:  # noqa: BLE001 - report bind failures
            self._startup_error = exc
            self._started.set()
            self._loop.close()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _shutdown(self) -> None:
        await self._close_listener()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection handling (loop thread only)
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        tracer = self.app.tracer
        tracer.add("service.connections_opened")
        tracer.gauge("service.connections_open", len(self._connections))
        # outstanding[0] counts parsed-but-unanswered requests: a new
        # request arriving while it is positive is pipelining in action.
        outstanding = [0]
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=max(1, self.app.config.pipeline_depth))
        responder = asyncio.ensure_future(
            self._respond_loop(queue, writer, outstanding))
        try:
            while True:
                try:
                    request = await self._read_request(reader, writer)
                except _ProtocolError as exc:
                    tracer.add("service.protocol_errors")
                    await queue.put(exc)
                    break
                except _Hangup:
                    tracer.add("service.client_disconnects")
                    break
                if request is None:  # clean EOF between requests
                    break
                if outstanding[0] > 0:
                    tracer.add("service.requests_pipelined")
                else:
                    tracer.add("service.requests_unpipelined")
                outstanding[0] += 1
                await queue.put(request)
                if request.close:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown: fall through to cleanup
        finally:
            # Only _shutdown cancels this task, and its cancel can land on
            # any await below.  Swallow it there too (asyncio logs an
            # error for a cancelled connection task), so the bookkeeping
            # always runs.
            try:
                await queue.put(None)
                await responder
            except asyncio.CancelledError:
                responder.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            self._connections.discard(task)
            tracer.add("service.connections_closed")
            tracer.gauge("service.connections_open", len(self._connections))

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter
                            ) -> Optional[_Request]:
        """Parse one HTTP/1.1 request, or None on clean EOF.

        Raises :class:`_ProtocolError` for malformed or oversized input
        and :class:`_Hangup` for idle timeouts and mid-request EOF.

        The whole header block is read with a single ``readuntil`` under
        a single :func:`asyncio.timeout`.  That is both the fast path —
        one await per request instead of one per header line, and no
        wrapper task at all when a pipelined request is already buffered
        — and the slow-loris defence: the block must complete within one
        idle timeout of when we started waiting, no matter how slowly
        its lines trickle in.
        """
        config = self.app.config
        timeout = config.idle_timeout_s
        try:
            # blank lines before the start line are tolerated
            # (rfc9112 §2.2), but only a few
            for _ in range(4):
                # pipelined fast path: when a whole header block is
                # already buffered, skip the timeout scaffolding (a
                # timer schedule + cancel per request adds up)
                if b"\r\n\r\n" in getattr(reader, "_buffer", b""):
                    block = (await reader.readuntil(b"\r\n\r\n"))[:-4]
                else:
                    async with asyncio.timeout(timeout):
                        block = (await reader.readuntil(b"\r\n\r\n"))[:-4]
                while block[:2] == b"\r\n":
                    block = block[2:]
                if block:
                    break
            else:
                raise _ProtocolError(
                    400, "bad_request_line",
                    "too many empty lines before the request")
        except TimeoutError:
            self.app.tracer.add("service.idle_timeouts")
            raise _Hangup from None
        except asyncio.IncompleteReadError as exc:
            if not exc.partial.strip(b"\r\n"):
                return None  # clean EOF between requests
            raise _Hangup from None  # client quit mid-headers
        except asyncio.LimitOverrunError:
            raise _ProtocolError(
                431, "headers_too_large",
                f"header block exceeds {config.max_header_bytes} "
                f"bytes") from None
        lines = block.split(b"\r\n")
        start_line = lines[0]
        if len(start_line) > config.max_header_bytes:
            raise _ProtocolError(
                431, "headers_too_large",
                f"request line exceeds {config.max_header_bytes} bytes")
        if len(block) - len(start_line) > config.max_header_bytes:
            raise _ProtocolError(
                431, "headers_too_large",
                f"header block exceeds {config.max_header_bytes} bytes")
        try:
            method, target, version = start_line.decode(
                "ascii").split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _ProtocolError(
                400, "bad_request_line",
                f"malformed request line: {start_line[:80]!r}") from None
        if not version.startswith("HTTP/1."):
            raise _ProtocolError(400, "bad_request_line",
                                 f"unsupported protocol {version!r}")
        pairs: list[tuple[str, str]] = []
        for raw in lines[1:]:
            name, separator, value = raw.decode("latin-1").partition(":")
            if not separator or not name.strip():
                raise _ProtocolError(400, "bad_header",
                                     f"malformed header line: {raw[:80]!r}")
            pairs.append((name.strip(), value.strip()))
        headers = Headers(pairs)
        if "transfer-encoding" in headers:
            raise _ProtocolError(501, "unsupported_transfer_encoding",
                                 "chunked request bodies are not supported")
        # -- body (rejected from Content-Length alone when oversized)
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            raise _ProtocolError(
                400, "bad_header",
                f"Content-Length is not a length: {raw_length!r}") from None
        if length > config.max_body_bytes:
            raise _ProtocolError(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{config.max_body_bytes}-byte limit")
        if length and headers.get("expect", "").lower() == "100-continue":
            # A client that sent Expect is waiting before its body, so it
            # cannot be pipelining ahead; answering inline is safe.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = b""
        if length:
            try:
                if len(getattr(reader, "_buffer", b"")) >= length:
                    body = await reader.readexactly(length)
                else:
                    async with asyncio.timeout(timeout):
                        body = await reader.readexactly(length)
            except TimeoutError:
                self.app.tracer.add("service.idle_timeouts")
                raise _Hangup from None
            except asyncio.IncompleteReadError:
                raise _Hangup from None  # client quit mid-body
        wants_close = headers.get("connection", "").lower() == "close" \
            or (version == "HTTP/1.0"
                and headers.get("connection", "").lower() != "keep-alive")
        return _Request(method, target, headers, body, wants_close)

    async def _respond_loop(self, queue: asyncio.Queue,
                            writer: asyncio.StreamWriter,
                            outstanding: list) -> None:
        """Drain the connection's request queue in order.

        Responses are accumulated in a buffer and flushed when the queue
        momentarily empties (or before blocking on the worker pool): a
        pipelined batch of warm-cache hits goes out as one ``send``
        syscall instead of one per response.
        """
        loop = asyncio.get_running_loop()
        buffer = bytearray()

        async def flush() -> None:
            if buffer:
                writer.write(bytes(buffer))
                buffer.clear()
                await writer.drain()

        try:
            while True:
                if queue.empty():
                    await flush()
                item = await queue.get()
                if item is None:
                    await flush()
                    return
                if isinstance(item, _ProtocolError):
                    response = self.app.protocol_error(
                        item.status, item.code, item.message)
                    buffer += _encode_response(response, close=True)
                    await flush()
                    return
                request: _Request = item
                response = self.app.try_fast_dispatch(
                    request.method, request.target, request.headers,
                    request.body)
                if response is None:
                    if self._pending >= self._pending_limit:
                        self.app.tracer.add("service.rejected_overloaded")
                        response = self.app.overloaded()
                    else:
                        # real reasoning ahead: ship finished replies
                        # instead of sitting on them while it runs
                        await flush()
                        self._pending += 1
                        try:
                            response = await loop.run_in_executor(
                                self._pool, self.app.dispatch,
                                request.method, request.target,
                                request.headers, request.body)
                        finally:
                            self._pending -= 1
                outstanding[0] -= 1
                close = response.close or request.close
                buffer += _encode_response(response, close=close)
                if close or len(buffer) >= _FLUSH_BYTES:
                    await flush()
                    if close:
                        return
        except (ConnectionError, OSError):
            self.app.tracer.add("service.client_disconnects")
            return


#: flush the response buffer at this size even mid-batch
_FLUSH_BYTES = 65536


def _encode_response(response: ServiceResponse, close: bool) -> bytes:
    body = json.dumps(response.payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}",
            f"Server: {SERVER_NAME}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}"]
    request_id = response.payload.get("request_id")
    if request_id:
        head.append(f"X-Repro-Request-Id: {request_id}")
    for name, value in response.headers:
        head.append(f"{name}: {value}")
    head.append(f"Connection: {'close' if close else 'keep-alive'}")
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body
