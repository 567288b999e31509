"""LRU caches backing the AnalysisEngine service layer.

Two instances sit in front of every analysis request: a *compile cache*
keyed by a content hash of the MiniC source plus the front-end options,
and a *result cache* keyed by the full analysis request.  Under the
repeated-request traffic shape the engine is built for, a hit in the
result cache skips the front end and the fixpoint entirely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(hits=self.hits, misses=self.misses, evictions=self.evictions)

    def __str__(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate, {self.evictions} evictions)"
        )


class LRUCache:
    """A thread-safe least-recently-used mapping with hit accounting.

    ``maxsize <= 0`` disables caching entirely (every lookup misses),
    which keeps call sites free of conditionals.
    """

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None, count_miss: bool = True) -> Any:
        """The value cached under ``key`` (counted as a hit), or
        ``default`` (counted as a miss unless ``count_miss`` is false)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                if count_miss:
                    self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute) -> Any:
        """Return the cached value for ``key``, computing and storing it
        on a miss.  The computation runs outside the lock (analyses are
        long; concurrent misses on the same key simply compute twice)."""
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        value = compute()
        self.put(key, value)
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
