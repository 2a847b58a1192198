"""Batched query execution: one entry point for a ``(queries, ranges)`` batch.

``execute_batch`` validates a caller-assembled batch and answers it with
one ``index.query`` call per request, so ``results[i]`` *is*
``index.query(queries[i], *ranges[i], k)``.  What a batch buys is one call
site, one lock hold in the serving layer, and aggregated
:class:`BatchStats`; repeated query vectors still hit the IVF-level
ADC-table and center-distance caches, as they do between single queries.

Indexes expose this through ``batch_search`` (a one-line mixin, see
:class:`repro.baselines.base.BatchSearchMixin`).  For process-level
parallelism over a batch use
:meth:`repro.parallel.ParallelQueryExecutor.search_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..obs import counter as obs_counter
from ..obs import histogram, phase
from .results import QueryResult, QueryStats

__all__ = ["BatchStats", "BatchResult", "execute_batch"]

_BATCH_WALL_MS = histogram("batch.wall_ms")
_BATCH_QUERIES = obs_counter("batch.queries")


@dataclass
class BatchStats:
    """Work counters aggregated over one ``batch_search`` call.

    Every request runs its own ``index.query``, so each total is the plain
    sum of the per-request :class:`QueryStats` and the phase timers never
    exceed ``wall_ms``.

    Attributes:
        num_queries: Requests in the batch.
        table_cache_hits / table_cache_misses: ADC-table cache outcomes
            attributable to this batch (0 when the index has no IVF cache).
        num_candidates: Total objects ADC-scored.
        wall_ms: End-to-end wall time of the batch.
        decompose_ms / table_ms / rank_ms / fetch_ms / adc_ms: Summed phase
            timers (see :class:`QueryStats`).
    """

    num_queries: int = 0
    table_cache_hits: int = 0
    table_cache_misses: int = 0
    num_candidates: int = 0
    wall_ms: float = 0.0
    decompose_ms: float = 0.0
    table_ms: float = 0.0
    rank_ms: float = 0.0
    fetch_ms: float = 0.0
    adc_ms: float = 0.0

    @property
    def qps(self) -> float:
        """Requests per second implied by ``wall_ms``."""
        return self.num_queries / (self.wall_ms / 1000.0) if self.wall_ms else 0.0

    @property
    def table_cache_hit_rate(self) -> float:
        """Fraction of this batch's table lookups served from the cache."""
        total = self.table_cache_hits + self.table_cache_misses
        return self.table_cache_hits / total if total else 0.0

    def add_query_stats(self, stats: QueryStats) -> None:
        """Fold one query's counters into the batch totals."""
        self.num_candidates += stats.num_candidates
        self.decompose_ms += stats.decompose_ms
        self.table_ms += stats.table_ms
        self.rank_ms += stats.rank_ms
        self.fetch_ms += stats.fetch_ms
        self.adc_ms += stats.adc_ms


@dataclass
class BatchResult:
    """Ordered per-request results plus batch-level counters."""

    results: list[QueryResult]
    stats: BatchStats = field(default_factory=BatchStats)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]


def execute_batch(
    index,
    queries: np.ndarray,
    ranges: Sequence[tuple[float, float]],
    k: int,
    *,
    l_budget: int | None = None,
) -> BatchResult:
    """Answer a batch of ``(query, range)`` requests against ``index``.

    Args:
        index: Any range-filtered index.
        queries: Array of shape ``(q, d)``.
        ranges: One inclusive ``(lo, hi)`` pair per query.
        k: Neighbors per request.
        l_budget: Optional shared ``L`` override; only indexes that choose
            ``L`` through an ``l_policy`` (the RangePQ family) accept one.

    Returns:
        A :class:`BatchResult`; ``results[i]`` is
        ``index.query(queries[i], *ranges[i], k)``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if len(queries) != len(ranges):
        raise ValueError(f"{len(queries)} queries but {len(ranges)} ranges")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if l_budget is None:
        budget = {}
    elif hasattr(index, "l_policy"):
        budget = {"l_budget": l_budget}
    else:
        raise ValueError(
            "l_budget is only supported by indexes with an l_policy"
        )
    stats = BatchStats(num_queries=len(queries))
    cache = getattr(getattr(index, "ivf", None), "table_cache", None)
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0

    results = []
    with phase("batch", metric=_BATCH_WALL_MS) as wall:
        for query, (lo, hi) in zip(queries, ranges):
            result = index.query(query, lo, hi, k, **budget)
            stats.add_query_stats(result.stats)
            results.append(result)
    stats.wall_ms = wall.ms
    _BATCH_QUERIES.inc(stats.num_queries)

    if cache is not None:
        stats.table_cache_hits = cache.hits - hits_before
        stats.table_cache_misses = cache.misses - misses_before
    return BatchResult(results=results, stats=stats)
