"""The event/metric bus: spans, counters, gauges, and the trace format.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Instrumented code reaches the bus
   only through :func:`current_tracer`, read once per call; it returns
   :data:`NULL_TRACER` unless an entry point installed a tracer with
   :func:`use_tracer`.  The null tracer's methods are empty and its
   ``span()`` returns one reusable no-op context manager — no
   allocation, no clock read.  Hot loops accumulate plain local integers
   and report them with a single ``add()`` call at the end, so the
   disabled path pays one no-op method call per loop, not per iteration.
2. **One bus, many layers.**  Entry points (the CLI, the service, the
   benchmark drivers) own a :class:`Tracer` and install it around the
   work they trace; every layer underneath — pipeline, expansion, LP,
   session, registry, query answering — records into whichever tracer is
   ambient when it runs.  Event names are dotted paths
   (``pipeline.expansion``, ``lp.pivots``, ``session.cache_hits``) so a
   trace reads as a flat, greppable stream.
3. **A versioned, line-oriented export.**  :meth:`Tracer.jsonl_lines`
   renders the trace as JSON lines — a header line carrying
   :data:`TRACE_SCHEMA_VERSION`, then one line per span in completion
   order, then one line per counter and gauge.  Consumers (CI artifacts,
   the benchmark recorder) key on ``type`` and ignore unknown fields,
   which is the compatibility contract the snapshot test pins.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import IO, Iterator, Optional, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
]

#: Version of the JSON-lines trace document format.  Bump on any change to
#: the line shapes below; consumers match on it via the header line.
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named monotonic wall-clock interval.

    ``start`` is seconds since the tracer's epoch (its construction, on the
    monotonic clock), so spans of one trace are mutually comparable but
    carry no absolute timestamps.  ``parent`` names the innermost span open
    when this one started (None at top level).
    """

    name: str
    start: float
    duration: float
    parent: Optional[str] = None

    def as_json(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "start_s": round(self.start, 9),
            "duration_s": round(self.duration, 9),
            "parent": self.parent,
        }


class Tracer:
    """The enabled event/metric bus.

    Spans record wall-clock intervals on the monotonic clock; counters
    accumulate (``add``); gauges keep the last sampled value (``gauge``).
    A tracer is append-only during a run; :meth:`clear` resets it between
    runs (the benchmark driver does this per section).

    One tracer may be shared by many threads (the query service installs
    its tracer on every worker thread that dispatches a request): the
    open-span stack is thread-local so parent attribution never
    crosses threads, and counter increments — a read-modify-write — are
    guarded by a lock.  Span/gauge recording relies on the atomicity of
    ``list.append`` and ``dict.__setitem__``.
    """

    __slots__ = ("_epoch", "spans", "counters", "gauges", "_local", "_lock")

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a named wall-clock interval around the ``with`` body."""
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self.spans.append(SpanRecord(
                name, start - self._epoch, duration, parent))

    def add(self, name: str, amount: int = 1) -> None:
        """Accumulate ``amount`` into counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Sample gauge ``name`` (last value wins)."""
        self.gauges[name] = value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def span_seconds(self, name: str) -> float:
        """Total duration of all completed spans named ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def span_count(self, name: str) -> int:
        """How many completed spans are named ``name``."""
        return sum(1 for s in self.spans if s.name == name)

    def snapshot(self) -> dict:
        """A plain-dict rendering of the whole trace (JSON-able)."""
        return {
            "trace_schema": TRACE_SCHEMA_VERSION,
            "spans": [record.as_json() for record in self.spans],
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def clear(self) -> None:
        """Drop all recorded events (open spans keep nesting correctly)."""
        self.spans.clear()
        self.counters.clear()
        self.gauges.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def jsonl_lines(self) -> list[str]:
        """The versioned JSON-lines rendering: header, spans, counters,
        gauges — one JSON document per line."""
        lines = [json.dumps({"type": "header",
                             "trace_schema": TRACE_SCHEMA_VERSION,
                             "generator": "repro"}, sort_keys=True)]
        for record in self.spans:
            lines.append(json.dumps(record.as_json(), sort_keys=True))
        for name, value in sorted(self.counters.items()):
            lines.append(json.dumps(
                {"type": "counter", "name": name, "value": value},
                sort_keys=True))
        for name, value in sorted(self.gauges.items()):
            lines.append(json.dumps(
                {"type": "gauge", "name": name, "value": value},
                sort_keys=True))
        return lines

    def write_jsonl(self, target: Union[str, IO[str]]) -> None:
        """Write the JSON-lines trace to a path or an open text stream."""
        text = "\n".join(self.jsonl_lines()) + "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)


class _NullSpan:
    """The reusable no-op span context (no allocation per use)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled bus: every method is a no-op.

    A single module-level instance (:data:`NULL_TRACER`) is the ambient
    tracer wherever no entry point installed one; ``tracer.enabled`` lets
    expensive *event preparation* (string formatting, snapshotting) be
    skipped entirely, not just the recording.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def add(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> int:
        return 0

    def span_seconds(self, name: str) -> float:
        return 0.0

    def span_count(self, name: str) -> int:
        return 0

    def snapshot(self) -> dict:
        return {"trace_schema": TRACE_SCHEMA_VERSION, "spans": [],
                "counters": {}, "gauges": {}}

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()

#: The ambient tracer: the one route from instrumented code to the bus.
#: Context-scoped, so concurrent requests on different threads each see
#: the tracer their entry point installed.
_CURRENT: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "repro_tracer", default=NULL_TRACER)


def current_tracer() -> Union[Tracer, NullTracer]:
    """The ambient tracer (``NULL_TRACER`` unless :func:`use_tracer` is
    active on the current context)."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer]) -> Iterator[None]:
    """Install ``tracer`` as the ambient tracer for the ``with`` body."""
    token = _CURRENT.set(tracer)
    try:
        yield
    finally:
        _CURRENT.reset(token)
