"""The one bounded LRU of the engine and the service.

Every cache a request can reach is an :class:`LruMemo`: the service's
result cache and parse memos, the session's per-schema entries, each
rewriter's rewrite cache and each reasoner's augmented-verdict memo.  The
service runs :meth:`~repro.service.app.ReproService.dispatch` on a thread
pool, so these are touched by several threads at once.  A bare
``OrderedDict`` is not safe there: a lookup's ``move_to_end`` racing
another thread's eviction raises ``KeyError``.  :class:`LruMemo` guards
every operation with one lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..obs.tracer import current_tracer

__all__ = ["LruMemo", "LruStats"]


@dataclass(frozen=True)
class LruStats:
    """A consistent snapshot of one LRU's counters and occupancy."""

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


class LruMemo:
    """A bounded, thread-safe LRU: hashable key → value (never None).

    It counts its hits, misses and evictions (:meth:`stats`).  A memo
    with a ``name`` also reports them to the ambient tracer as
    ``{name}_hits``, ``{name}_misses`` and ``{name}_evictions``, and with
    ``gauge=True`` its occupancy as the ``{name}_size`` gauge after every
    insert or removal.
    """

    __slots__ = ("limit", "name", "_gauge", "_lock", "_entries", "_hits",
                 "_misses", "_evictions")

    def __init__(self, limit: int = 256, name: Optional[str] = None, *,
                 gauge: bool = False):
        if limit < 1:
            raise ValueError(f"cache limit must be positive, got {limit}")
        self.limit = limit
        self.name = name
        self._gauge = gauge and name is not None
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._hits = self._misses = self._evictions = 0

    def get(self, key, *, count_miss: bool = True):
        """The value for ``key``, now the most recent entry, or None.

        A hit is counted; a miss too, unless ``count_miss`` is false —
        for a probe whose miss the caller repeats as a counted lookup.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._trace("hits")
            elif count_miss:
                self._misses += 1
                self._trace("misses")
            return value

    def peek(self, key):
        """The value for ``key``, or None: not counted, recency unchanged."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value) -> None:
        """Store ``value`` as the most recent entry, evicting the least
        recently used ones past the limit."""
        self._store(key, value, replace=True)

    def setdefault(self, key, value):
        """The value stored for ``key``, else ``value`` stored as by
        :meth:`put`: threads that built one key at once agree on one."""
        return self._store(key, value, replace=False)

    def _store(self, key, value, replace: bool):
        with self._lock:
            stored = self._entries.get(key)
            if replace or stored is None:
                self._entries[key] = stored = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self._evictions += 1
                self._trace("evictions")
            self._trace_size()
            return stored

    def pop(self, key):
        """Remove and return the value for ``key``, or None."""
        with self._lock:
            value = self._entries.pop(key, None)
            self._trace_size()
            return value

    def clear(self) -> list:
        """Remove every entry; returns the removed values.  The counters
        keep counting."""
        with self._lock:
            values = list(self._entries.values())
            self._entries.clear()
            self._trace_size()
            return values

    def stats(self) -> LruStats:
        with self._lock:
            return LruStats(self._hits, self._misses, self._evictions,
                            len(self._entries), self.limit)

    def _trace(self, event: str) -> None:
        if self.name is not None:
            current_tracer().add(f"{self.name}_{event}")

    def _trace_size(self) -> None:
        if self._gauge:
            current_tracer().gauge(f"{self.name}_size", len(self._entries))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
