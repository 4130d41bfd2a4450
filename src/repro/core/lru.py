"""A small, thread-safe LRU memo shared by every bounded cache that has
no counters of its own.

The service runs :meth:`~repro.service.app.ReproService.dispatch` on a
thread pool, so any LRU a request can reach is touched by several
threads at once.  A bare ``OrderedDict`` is not safe there: a lookup's
``move_to_end`` racing another thread's eviction raises ``KeyError``.
:class:`LruMemo` guards its three operations with one lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["LruMemo"]


class LruMemo:
    """A bounded, thread-safe LRU memo: hashable key → value.

    Users: the service's parse memos (schema source → ``(fingerprint,
    Schema)``, formula text → ``(Formula, canonical key)``), the
    rewriter's per-schema rewrite cache and the reasoner's augmented
    verdict cache.  It keeps no counters and no tracer: it memoizes
    derivations, and each user counts its own hits where they matter.
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
