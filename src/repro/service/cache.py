"""The result cache: fingerprint-keyed verdicts, ahead of any reasoner.

The session's pipeline LRU (:mod:`repro.engine.session`) makes *schemas*
warm; this cache makes *answers* free.  Satisfiability is a pure function
of ``(schema, formula)``, and :func:`~repro.engine.session.schema_fingerprint`
already normalizes definition order away — so the service can key
completed verdicts by ``(schema_fingerprint, canonical formula text)``
and answer repeats without touching a reasoner at all.  A production
query mix is dominated by exactly such repeats (the same dashboard
validating the same fleet of schemas), which is what the warm-cache
throughput benchmark (``benchmarks/bench_service.py``) measures.

Only *verdicts* are cached.  Errors are not: a budget trip depends on the
budget the client sent, not on the query, and an internal error must not
become sticky.

The cache is a plain lock-guarded LRU ``OrderedDict`` with hit / miss /
eviction counters mirrored onto the ambient tracer
(``service.result_cache_*``) for ``/metrics``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..obs.tracer import current_tracer

__all__ = ["LruMemo", "ResultCache", "ResultCacheStats"]


@dataclass(frozen=True)
class ResultCacheStats:
    """A consistent snapshot of the cache counters and occupancy."""

    hits: int
    misses: int
    evictions: int
    size: int
    limit: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
            "size": self.size,
            "limit": self.limit,
        }


class ResultCache:
    """A bounded, thread-safe LRU of ``(fingerprint, formula) -> verdict``."""

    def __init__(self, limit: int = 1024):
        if limit < 1:
            raise ValueError(f"cache limit must be positive, got {limit}")
        self.limit = limit
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, str], bool]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def peek(self, fingerprint: str, formula: str) -> Optional[bool]:
        """Like :meth:`get`, but a miss is not counted (and not traced).

        The event-loop fast path probes the cache before deciding whether
        a request needs a worker thread at all; counting those probes as
        misses would double-book every cold request (once at the probe,
        once at the real :meth:`get` inside the handler).
        """
        key = (fingerprint, formula)
        with self._lock:
            try:
                verdict = self._entries[key]
            except KeyError:
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            current_tracer().add("service.result_cache_hits")
            return verdict

    def get(self, fingerprint: str, formula: str) -> Optional[bool]:
        """The cached verdict, or None on a miss (verdicts are booleans,
        so None is unambiguous)."""
        key = (fingerprint, formula)
        tracer = current_tracer()
        with self._lock:
            try:
                verdict = self._entries[key]
            except KeyError:
                self._misses += 1
                tracer.add("service.result_cache_misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            tracer.add("service.result_cache_hits")
            return verdict

    def put(self, fingerprint: str, formula: str, verdict: bool) -> None:
        """Store a completed verdict, evicting the LRU entry when full."""
        key = (fingerprint, formula)
        tracer = current_tracer()
        with self._lock:
            self._entries[key] = verdict
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self._evictions += 1
                tracer.add("service.result_cache_evictions")
            tracer.gauge("service.result_cache_size", len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            current_tracer().gauge("service.result_cache_size", 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> ResultCacheStats:
        with self._lock:
            return ResultCacheStats(self._hits, self._misses,
                                    self._evictions, len(self._entries),
                                    self.limit)


class LruMemo:
    """A small, generic, thread-safe LRU memo: hashable key → value.

    The service keeps two of these on the hot path — schema source →
    ``(fingerprint, Schema)`` and formula text → ``(Formula, canonical
    key)`` — so a warm request never re-parses inputs the previous
    thousand requests already parsed.  Unlike :class:`ResultCache` it has
    no counters and no tracer: it memoizes *derivations* of the request
    text, not answers, so its hit rate is not an interesting service
    metric (it tracks the result cache's).
    """

    __slots__ = ("limit", "_lock", "_entries")

    def __init__(self, limit: int = 256):
        if limit < 1:
            raise ValueError(f"memo limit must be positive, got {limit}")
        self.limit = limit
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        """The memoized value, or None (values are never None here)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
