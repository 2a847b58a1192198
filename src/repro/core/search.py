"""SearchByCCenters (Alg. 2): the shared second phase of RangePQ queries.

Both RangePQ and RangePQ+ reduce a range-filtered query to the same problem:
given the candidate set ``C`` of coarse clusters that contain in-range
objects, and a way to enumerate each cluster's in-range members, retrieve up
to ``L`` objects in ascending order of *cluster-center* distance to the query
vector and rank them by asymmetric (ADC) distance.  This module implements
that phase once, parameterized by a per-cluster ``take`` callable.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .. import kernels
from ..ivf import IVFPQIndex
from ..obs import histogram, phase
from .results import QueryResult, QueryStats

__all__ = ["search_by_coarse_centers"]

_RANK_MS = histogram("query.rank_ms")
_TABLE_MS = histogram("query.table_ms")
_FETCH_MS = histogram("query.fetch_ms")
_ADC_SCAN_MS = histogram("query.adc_scan_ms")
_RERANK_MS = histogram("query.rerank_ms")


def search_by_coarse_centers(
    ivf: IVFPQIndex,
    query: np.ndarray,
    k: int,
    l_budget: int,
    candidate_clusters: Sequence[int],
    take: Callable[[int, int], list[int]],
    stats: QueryStats,
) -> QueryResult:
    """Retrieve the top-``k`` in-range neighbors from candidate clusters.

    Args:
        ivf: The PQ-based index providing coarse centers and ADC codes.
        query: Query vector of shape ``(d,)``.
        k: Number of results to return.
        l_budget: ``L`` — stop once this many objects have been retrieved
            (Alg. 2 line 11).
        candidate_clusters: The set ``C`` of coarse-cluster IDs that contain
            at least one in-range object.
        take: ``take(cluster, limit)`` returns the first ``limit``
            in-range object IDs of one cluster, in the cluster's fetch
            order (RangePQ slices the cluster's run, RangePQ+ drains its
            bucket chunks).
        stats: Mutated in place with work counters.  All phase timers
            *and* work counters accumulate (``+=``; ``l_used`` takes the
            max), so one stats object can aggregate several calls.

    Returns:
        A :class:`QueryResult` with up to ``k`` objects.
    """
    stats.num_candidate_clusters += len(candidate_clusters)
    if not candidate_clusters:
        # No retrieval ran, so no L budget was consumed: leave l_used at 0.
        return QueryResult.empty(stats)
    stats.l_used = max(stats.l_used, l_budget)

    # Alg. 2 lines 1-4: rank candidate clusters by center distance.
    with phase("rank", metric=_RANK_MS) as timer:
        clusters = np.asarray(list(candidate_clusters), dtype=np.int64)
        center_dist = ivf.center_distances(query)
        clusters = clusters[np.argsort(center_dist[clusters], kind="stable")]
    stats.rank_ms += timer.ms

    with phase("table", metric=_TABLE_MS) as timer:
        table = ivf.distance_table(query)
    stats.table_ms += timer.ms

    # Alg. 2 lines 5-13: drain clusters nearest-first until L objects.
    # The per-object distances are independent of the drain order and the
    # early stop (|R| = L) depends only on counts, so the ADC lookups are
    # deferred into one batched call after collection.
    remaining = l_budget
    collected: list[int] = []
    with phase("fetch", metric=_FETCH_MS) as timer:
        for cluster in clusters:
            batch = take(int(cluster), remaining)
            if not batch:
                continue
            collected.extend(batch)
            remaining -= len(batch)
            if remaining <= 0:
                break
    stats.fetch_ms += timer.ms

    if not collected:
        return QueryResult.empty(stats)
    with phase("adc_scan", metric=_ADC_SCAN_MS) as timer:
        ids = np.asarray(collected, dtype=np.int64)
        distances = ivf.adc_for_ids(table, collected)
        stats.num_candidates += len(ids)
    stats.adc_ms += timer.ms

    with phase("rerank", metric=_RERANK_MS) as timer:
        order = kernels.topk_order(distances, k)
    stats.adc_ms += timer.ms
    return QueryResult(ids=ids[order], distances=distances[order], stats=stats)
