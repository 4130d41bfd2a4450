"""Admission control: bounded concurrency with a bounded wait queue.

The reasoning pipeline is pure CPU work with EXPTIME-hard worst cases
(Theorem 4.1), so a service that admits every request melts the moment
traffic exceeds the cores.  The :class:`AdmissionController` enforces the
classic two-bound shape:

* at most ``max_inflight`` requests *execute* concurrently;
* at most ``max_queue`` more may *wait* for a slot, each for at most
  ``queue_timeout`` seconds;
* everything beyond that is rejected immediately — the caller turns the
  :class:`AdmissionRejected` into an HTTP 429 with a ``Retry-After`` hint.

Rejecting at the door is the point: a bounded queue converts overload
into fast, explicit backpressure instead of unbounded latency, and the
reasoner never sees work the service cannot afford to finish.

All state lives behind one :class:`threading.Condition`; the controller
is the *only* synchronization the request path needs above the session's
own LRU lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from ..obs.tracer import current_tracer

__all__ = ["AdmissionController", "AdmissionRejected", "AdmissionStats"]


class AdmissionRejected(Exception):
    """The controller declined a request (queue full or wait timed out).

    ``retry_after`` is the server's hint, in whole seconds, for when a
    retry is likely to be admitted; ``reason`` distinguishes an instant
    queue-full rejection from a queued request whose patience ran out.
    """

    def __init__(self, message: str, *, retry_after: int, reason: str):
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


@dataclass(frozen=True)
class AdmissionStats:
    """A consistent snapshot of the controller's counters and occupancy."""

    admitted: int
    rejected_queue_full: int
    rejected_timeout: int
    inflight: int
    queued: int
    peak_inflight: int
    max_inflight: int
    max_queue: int

    @property
    def rejected(self) -> int:
        """Total rejections, whatever the reason."""
        return self.rejected_queue_full + self.rejected_timeout

    def to_json(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_timeout": self.rejected_timeout,
            "inflight": self.inflight,
            "queued": self.queued,
            "peak_inflight": self.peak_inflight,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
        }


class AdmissionController:
    """Bounded in-flight execution with a bounded, time-limited wait queue.

    Use as a context manager around the admitted work::

        with controller.admit():      # may raise AdmissionRejected
            ... answer the query ...

    Counters surface on the ambient tracer (``service.admitted``,
    ``service.rejected_*``) and in :meth:`stats` for ``/metrics``.
    """

    def __init__(self, max_inflight: int = 8, max_queue: int = 16,
                 queue_timeout: float = 0.5):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if queue_timeout < 0:
            raise ValueError(
                f"queue_timeout must be >= 0, got {queue_timeout}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self._admitted = 0
        self._rejected_queue_full = 0
        self._rejected_timeout = 0
        self._peak_inflight = 0

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def acquire(self) -> float:
        """Take an execution slot, waiting in the bounded queue if needed.

        Returns the seconds spent waiting in the queue (0.0 when a slot
        was free immediately) — the caller charges that wait against the
        request's budget, so a request that queued for most of its
        ``X-Repro-Timeout-Ms`` does not restart with a full allowance.

        Raises :class:`AdmissionRejected` when the queue is already full
        or no slot frees up within ``queue_timeout`` seconds.
        """
        retry_after = max(1, round(self.queue_timeout) or 1)
        with self._cond:
            if self._inflight < self.max_inflight:
                self._admit_locked()
                return 0.0
            if self._queued >= self.max_queue:
                self._rejected_queue_full += 1
                current_tracer().add("service.rejected_queue_full")
                raise AdmissionRejected(
                    f"admission queue full ({self._queued} waiting, "
                    f"{self._inflight} in flight)",
                    retry_after=retry_after, reason="queue_full")
            self._queued += 1
            entered = time.monotonic()
            deadline = entered + self.queue_timeout
            try:
                while self._inflight >= self.max_inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._rejected_timeout += 1
                        current_tracer().add("service.rejected_timeout")
                        raise AdmissionRejected(
                            f"no execution slot freed within "
                            f"{self.queue_timeout:g}s",
                            retry_after=retry_after, reason="timeout")
                    self._cond.wait(remaining)
                self._admit_locked()
                return time.monotonic() - entered
            finally:
                self._queued -= 1

    def _admit_locked(self) -> None:
        self._inflight += 1
        self._admitted += 1
        self._peak_inflight = max(self._peak_inflight, self._inflight)
        tracer = current_tracer()
        tracer.add("service.admitted")
        tracer.gauge("service.inflight", self._inflight)

    def release(self) -> None:
        """Give an execution slot back and wake one queued waiter."""
        with self._cond:
            self._inflight -= 1
            current_tracer().gauge("service.inflight", self._inflight)
            if self._inflight == 0 and self._queued == 0:
                self._cond.notify_all()  # wake wait_idle() too
            else:
                self._cond.notify()

    def admit(self) -> "_AdmissionSlot":
        """Context-manager form of :meth:`acquire`/:meth:`release`."""
        return _AdmissionSlot(self)

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is in flight or queued (for draining).

        Returns False when ``timeout`` seconds pass first.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while self._inflight or self._queued:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def stats(self) -> AdmissionStats:
        with self._cond:
            return AdmissionStats(
                self._admitted, self._rejected_queue_full,
                self._rejected_timeout, self._inflight, self._queued,
                self._peak_inflight, self.max_inflight, self.max_queue)


class _AdmissionSlot:
    """The held-slot context: acquire on enter, release on exit."""

    __slots__ = ("_controller",)

    def __init__(self, controller: AdmissionController):
        self._controller = controller

    def __enter__(self) -> Iterator[None]:
        self._controller.acquire()
        return None

    def __exit__(self, *exc_info) -> bool:
        self._controller.release()
        return False
