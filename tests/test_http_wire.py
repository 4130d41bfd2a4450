"""The asyncio wire layer, probed with raw sockets.

:mod:`tests.test_service` drives the socket-free application; these
tests drive the HTTP/1.1 parser itself — keep-alive, pipelining,
split-segment framing, size limits, slow-loris/idle timeouts, and
half-finished clients — the failure modes a hand-rolled parser has to
get right.
"""

import asyncio
import json
import logging
import socket
import threading
import time

import pytest

from repro.service import API_VERSION, ReproService, ServiceConfig
from tests.wire import check_envelope, unwrap, unwrap_error

DISJOINT_SCHEMA = "class A isa not B endclass class B endclass"


def _request_bytes(method="POST", path="/v1/satisfiable", body=None,
                   headers=()):
    payload = b"" if body is None else json.dumps(body).encode()
    lines = [f"{method} {path} HTTP/1.1", "Host: t",
             f"Content-Length: {len(payload)}"]
    lines += [f"{name}: {value}" for name, value in headers]
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + payload


class _Client:
    """A raw-socket HTTP client that keeps its read buffer across
    responses — pipelined replies arrive back-to-back in one segment,
    so per-call ``recv`` would throw away the next response's bytes."""

    def __init__(self, address, timeout=10):
        self.sock = socket.create_connection(address, timeout=timeout)
        self._buffer = b""

    def sendall(self, raw):
        self.sock.sendall(raw)

    def recv(self, n):
        if self._buffer:
            chunk, self._buffer = self._buffer[:n], self._buffer[n:]
            return chunk
        return self.sock.recv(n)

    def close(self):
        self.sock.close()

    def read_response(self):
        """One full HTTP response: (status, headers, body)."""
        while b"\r\n\r\n" not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed before a full header")
            self._buffer += chunk
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self._buffer) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            self._buffer += chunk
        raw, self._buffer = self._buffer[:length], self._buffer[length:]
        body = json.loads(raw) if length else None
        return status, headers, body


def _read_response(conn):
    return conn.read_response()


@pytest.fixture(scope="module")
def live():
    config = ServiceConfig(port=0, max_header_bytes=2048,
                           max_body_bytes=4096, idle_timeout_s=1.0)
    with ReproService(config) as svc:
        yield svc, (svc.host, svc.port)


@pytest.fixture()
def conn(live):
    _, address = live
    client = _Client(address)
    yield client
    client.close()


class TestKeepAliveAndPipelining:
    def test_many_requests_reuse_one_connection(self, conn):
        for index in range(5):
            conn.sendall(_request_bytes(
                body={"schema": DISJOINT_SCHEMA, "formula": "A"}))
            status, headers, payload = _read_response(conn)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert unwrap(payload, status=status)["verdict"] is True
            assert payload["api_version"] == API_VERSION

    def test_pipelined_requests_answer_in_order(self, live, conn):
        svc, _ = live
        before = svc.tracer.counters.get("service.requests_pipelined", 0)
        # The first request must be a cache-cold formula: a warm hit is
        # answered inline on the event loop as fast as the reader parses
        # it, so the pipelining counter would stay at zero.  A cold one
        # occupies the worker pool while requests 2-3 queue behind it.
        batch = (_request_bytes(body={"schema": DISJOINT_SCHEMA,
                                      "formula": "A or not B"})
                 + _request_bytes(method="GET", path="/healthz")
                 + _request_bytes(body={"schema": DISJOINT_SCHEMA,
                                        "formula": "A and B"}))
        conn.sendall(batch)
        first = _read_response(conn)
        second = _read_response(conn)
        third = _read_response(conn)
        assert unwrap(first[2])["verdict"] is True
        assert unwrap(second[2])["status"] == "ok"
        assert unwrap(third[2])["verdict"] is False
        assert (svc.tracer.counters.get("service.requests_pipelined", 0)
                > before)

    def test_request_split_across_tcp_segments(self, conn):
        raw = _request_bytes(body={"schema": DISJOINT_SCHEMA,
                                   "formula": "A"})
        # drip the bytes: header split mid-line, body split mid-JSON
        for start in range(0, len(raw), 7):
            conn.sendall(raw[start:start + 7])
            time.sleep(0.001)
        status, _, payload = _read_response(conn)
        assert status == 200
        assert unwrap(payload, status=status)["verdict"] is True

    def test_pipelined_batch_split_at_an_arbitrary_byte(self, conn):
        batch = (_request_bytes(method="GET", path="/healthz")
                 + _request_bytes(method="GET", path="/readyz"))
        # split inside the second request's start line
        cut = len(batch) - 9
        conn.sendall(batch[:cut])
        time.sleep(0.02)
        conn.sendall(batch[cut:])
        assert _read_response(conn)[0] == 200
        assert _read_response(conn)[0] == 200


class TestProtocolLimits:
    def test_oversized_start_line_is_431_and_close(self, conn):
        conn.sendall(b"GET /" + b"x" * 4096 + b" HTTP/1.1\r\nHost: t\r\n\r\n")
        status, headers, payload = _read_response(conn)
        assert status == 431
        assert headers["connection"] == "close"
        error = unwrap_error(payload, status=status)
        assert error["code"] == "headers_too_large"
        assert conn.recv(1) == b""  # server really closed

    def test_oversized_header_block_is_431(self, conn):
        head = b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
        head += b"".join(b"X-Pad-%d: %s\r\n" % (i, b"y" * 200)
                         for i in range(20))
        conn.sendall(head + b"\r\n")
        status, _, payload = _read_response(conn)
        assert status == 431
        assert unwrap_error(payload, status=status)["sysexit"] == 64

    def test_oversized_content_length_is_413_without_reading(self, conn):
        # no body bytes are sent at all: the refusal comes from the header
        conn.sendall(b"POST /v1/satisfiable HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: 99999\r\n\r\n")
        status, headers, payload = _read_response(conn)
        assert status == 413
        assert headers["connection"] == "close"
        assert unwrap_error(payload, status=status)["sysexit"] == 77

    def test_bad_request_line_is_400(self, conn):
        conn.sendall(b"NONSENSE\r\n\r\n")
        status, _, payload = _read_response(conn)
        assert status == 400
        assert unwrap_error(payload)["code"] == "bad_request_line"

    def test_chunked_transfer_encoding_is_501(self, conn):
        conn.sendall(b"POST /v1/satisfiable HTTP/1.1\r\nHost: t\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n")
        status, _, payload = _read_response(conn)
        assert status == 501
        assert (unwrap_error(payload)["code"]
                == "unsupported_transfer_encoding")

    def test_expect_100_continue_is_honored(self, conn):
        body = json.dumps({"schema": DISJOINT_SCHEMA,
                           "formula": "A"}).encode()
        conn.sendall(b"POST /v1/satisfiable HTTP/1.1\r\nHost: t\r\n"
                     b"Expect: 100-continue\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(body))
        interim = conn.recv(64)
        assert interim.startswith(b"HTTP/1.1 100 Continue")
        conn.sendall(body)
        status, _, payload = _read_response(conn)
        assert status == 200
        assert unwrap(payload)["verdict"] is True


class TestConnectionLifecycle:
    def test_shutdown_cancel_during_close_still_counts_the_close(
            self, monkeypatch, caplog):
        """drain() cancels connection tasks; a cancel landing while a task
        awaits ``wait_closed`` must neither skip the close bookkeeping nor
        surface as an asyncio error."""
        entered = threading.Event()

        async def wait_closed_until_cancelled(writer):
            entered.set()
            await asyncio.Event().wait()

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            wait_closed_until_cancelled)
        caplog.set_level(logging.ERROR, logger="asyncio")
        svc = ReproService(ServiceConfig(port=0))
        address = svc.start()
        try:
            client = _Client(address)
            client.sendall(_request_bytes(method="GET", path="/v1/version"))
            status, _, _ = _read_response(client)
            client.close()
            assert status == 200
            assert entered.wait(timeout=10)
        finally:
            svc.drain(grace=1.0)
        counters = svc.tracer.counters
        assert counters["service.connections_opened"] == 1
        assert counters.get("service.connections_closed") == 1
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio"] == []

    def test_client_disconnect_mid_body_leaves_service_healthy(self, live):
        svc, address = live
        sock = socket.create_connection(address, timeout=10)
        sock.sendall(b"POST /v1/satisfiable HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: 500\r\n\r\n" + b"{" )
        sock.close()  # vanish with 499 bytes still owed
        time.sleep(0.1)
        again = _Client(address)
        try:
            again.sendall(_request_bytes(method="GET", path="/healthz"))
            status, _, payload = _read_response(again)
        finally:
            again.close()
        assert status == 200
        assert svc.tracer.counters.get("service.client_disconnects", 0) >= 1

    def test_idle_connection_is_closed_by_the_timeout(self, live, conn):
        svc, _ = live
        before = svc.tracer.counters.get("service.idle_timeouts", 0)
        start = time.perf_counter()
        # send nothing: the 1s idle timeout must close the socket
        assert conn.recv(1) == b""
        elapsed = time.perf_counter() - start
        assert 0.2 < elapsed < 8.0
        assert svc.tracer.counters.get("service.idle_timeouts", 0) > before

    def test_slow_loris_header_trickle_is_cut_off(self, live):
        _, address = live
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            deadline = time.perf_counter() + 8.0
            closed = False
            while time.perf_counter() < deadline:
                try:
                    sock.sendall(b"X-Drip: y\r\n")
                except (BrokenPipeError, ConnectionResetError):
                    closed = True
                    break
                time.sleep(0.4)
                sock.setblocking(False)
                try:
                    if sock.recv(1) == b"":
                        closed = True
                        break
                except BlockingIOError:
                    pass
                finally:
                    sock.setblocking(True)
            assert closed, "slow-loris connection survived the idle timeout"

    def test_keep_alive_survives_application_errors(self, conn):
        # error responses (4xx from the app) must NOT close the connection
        conn.sendall(_request_bytes(body={"formula": "A"}))  # no schema
        status, headers, payload = _read_response(conn)
        assert status == 422
        assert headers["connection"] == "keep-alive"
        check_envelope(payload, status=status)
        conn.sendall(_request_bytes(
            body={"schema": DISJOINT_SCHEMA, "formula": "A"}))
        status, _, payload = _read_response(conn)
        assert status == 200
        assert unwrap(payload)["verdict"] is True

    def test_connection_close_header_is_honored(self, conn):
        conn.sendall(_request_bytes(method="GET", path="/healthz",
                                    headers=(("Connection", "close"),)))
        status, headers, _ = _read_response(conn)
        assert status == 200
        assert headers["connection"] == "close"
        assert conn.recv(1) == b""
