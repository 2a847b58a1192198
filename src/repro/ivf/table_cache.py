"""Query-keyed LRU cache for per-query derived arrays (ADC tables, center
distances).

Serving traffic is rarely uniform: popular query vectors repeat (Zipf-shaped
request streams, duplicate queries inside one batch), and every repeat pays
the ``O(d·Z)`` ADC-table build and the ``O(K·d)`` center-distance pass again.
:class:`LRUCache` memoizes those arrays keyed by the raw query bytes, so an
exact repeat skips the kernel entirely.  :class:`IVFPQIndex` owns two
instances (one per derived array) and clears them whenever the quantizers
are retrained, since the cached arrays are only valid for one codebook set.

Cached values are stored as read-only ndarrays shared between hits; callers
must not mutate them.  A capacity of 0 disables caching (every ``get`` is a
miss and ``put`` is a no-op) while keeping the stats counters meaningful.

The cache is shared by every reader thread of an
:class:`~repro.service.IndexService`, so ``get``/``put``/``clear``/``stats``
serialize on one mutex.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

__all__ = ["LRUCache", "CacheStats"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of one cache's counters.

    Attributes:
        hits / misses: Lookup outcomes since construction.
        evictions: Entries dropped because capacity was exceeded.
        invalidations: Times the whole cache was cleared (e.g. on retrain).
        size: Entries currently stored.
        capacity: Maximum entries (0 = caching disabled).
    """

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when none ran)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Bounded mapping with least-recently-used eviction and hit counters.

    The method surface is deliberately ``get``/``put``/``clear``: the cache
    is a memo, not an index — entries carry no invariants of their own, and
    dropping any entry at any time is always correct.

    Args:
        capacity: Maximum number of entries kept; 0 disables the cache.
    """

    __slots__ = ("_capacity", "_entries", "_mutex", "hits", "misses",
                 "evictions", "invalidations")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._mutex = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __reduce__(self):
        # A lock cannot be copied or pickled, and dropping entries is always
        # correct: a copy is a cold cache of the same capacity.
        return (type(self), (self._capacity,))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, key: Hashable):
        """Return the cached value for ``key`` (marking it recent), else None."""
        with self._mutex:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        if self._capacity == 0:
            return
        with self._mutex:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counted as one invalidation); stats persist."""
        with self._mutex:
            self._entries.clear()
            self.invalidations += 1

    def stats(self) -> CacheStats:
        """Snapshot of the counters; see :class:`CacheStats`."""
        with self._mutex:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                size=len(self._entries),
                capacity=self._capacity,
            )
