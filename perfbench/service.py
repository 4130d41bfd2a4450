"""The HTTP side: a ``repro serve`` subprocess and a keep-alive client."""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from common import ROOT, SetupError, child_env

_LISTENING = re.compile(rb"listening on http://([0-9.]+):([0-9]+)")


def valid_envelope(payload) -> bool:
    """A successful v1 envelope: ``{"api_version": 1, "request_id": str,
    "ok": true, "data": {...}}`` and nothing else."""
    return (isinstance(payload, dict)
            and set(payload) == {"api_version", "request_id", "ok", "data"}
            and payload["api_version"] == 1
            and isinstance(payload["request_id"], str)
            and payload["ok"] is True
            and isinstance(payload["data"], dict))


class Client:
    """One keep-alive HTTP/1.1 connection; callers wait for each reply."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self._address = (host, port)
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, document=None,
             headers: Optional[dict] = None):
        """``(status, envelope or None, seconds)``; status 0 means the
        transport failed.  The body is encoded before the clock starts
        and decoded after it stops."""
        body = (json.dumps(document).encode("utf-8")
                if document is not None else None)
        request_headers = {"Content-Type": "application/json"}
        if headers:
            request_headers.update(headers)
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                *self._address, timeout=self._timeout)
        started = time.perf_counter()
        try:
            self._conn.request(method, path, body=body,
                               headers=request_headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, None, time.perf_counter() - started
        elapsed = time.perf_counter() - started
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return response.status, payload, elapsed

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def wait_ready(host: str, port: int, deadline: float) -> None:
    """Poll ``GET /readyz`` until it answers 200."""
    client = Client(host, port, timeout=5.0)
    try:
        while True:
            status, _, _ = client.call("GET", "/readyz")
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise SetupError(f"/readyz still {status} at the deadline")
            client.close()
            time.sleep(0.005)
    finally:
        client.close()


class ServerProcess:
    """``python -m repro serve`` with default flags, an ephemeral port and
    its own artifact directory."""

    def __init__(self, artifact_dir: Path, log_path: Path,
                 boot_timeout: float = 60.0):
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--artifact-dir", str(artifact_dir)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL)
        try:
            self.host, self.port = self._read_address(boot_timeout)
            wait_ready(self.host, self.port,
                       time.monotonic() + boot_timeout)
        except BaseException:
            self.stop()
            raise

    def _read_address(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        stream = self.process.stdout
        buffered = b""
        while True:
            match = _LISTENING.search(buffered)
            if match:
                return match.group(1).decode(), int(match.group(2))
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SetupError("repro serve did not report its address")
            ready, _, _ = select.select([stream], [], [], remaining)
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    raise SetupError(
                        f"repro serve exited with {self.process.wait()}")
                buffered += chunk

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SetupError("VmHWM not reported by /proc")

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
