"""Pinning tests for SearchStats/QueryStats accounting.

These pin the accumulation contracts fixed in the observability PR:
``search_by_coarse_centers`` *accumulates* work counters (so one stats
object can aggregate several calls, as the scatter-gather router relies
on), and the batch totals are the sums of the per-request phase timers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RangePQ, RangePQPlus
from repro.core.results import QueryStats
from repro.core.search import search_by_coarse_centers
from repro.ivf import IVFPQIndex

BUILD = dict(num_subspaces=4, num_clusters=10, num_codewords=32, seed=0)


def _take(ivf):
    """``take(cluster, limit)`` over a whole IVF cluster."""
    return lambda cluster, limit: ivf.cluster_members(cluster).tolist()[:limit]


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(77)
    vectors = rng.normal(size=(300, 16))
    ivf = IVFPQIndex(4, num_clusters=8, num_codewords=16, seed=0)
    ivf.train(vectors)
    ivf.add(np.arange(300), vectors)
    return ivf, vectors


class TestSearchStatsAccumulate:
    def test_two_calls_sum_counters_and_max_l_used(self, trained):
        ivf, vectors = trained
        clusters = list(range(ivf.num_clusters))
        stats = QueryStats()
        search_by_coarse_centers(
            ivf, vectors[0], 5, 10**6, clusters, _take(ivf), stats
        )
        first_clusters = stats.num_candidate_clusters
        first_candidates = stats.num_candidates
        first_fetch = stats.fetch_ms
        assert first_clusters == len(clusters)
        assert first_candidates == 300
        assert stats.l_used == 10**6

        # Second call with a smaller budget into the SAME stats object:
        # counters must sum, l_used must keep the max, timers accumulate.
        search_by_coarse_centers(
            ivf, vectors[1], 5, 7, clusters, _take(ivf), stats
        )
        assert stats.num_candidate_clusters == 2 * first_clusters
        assert stats.num_candidates == first_candidates + 7
        assert stats.l_used == 10**6
        assert stats.fetch_ms >= first_fetch

    def test_empty_candidate_set_leaves_stats_untouched(self, trained):
        ivf, vectors = trained
        stats = QueryStats()
        search_by_coarse_centers(
            ivf, vectors[0], 5, 10**6, list(range(ivf.num_clusters)),
            _take(ivf), stats,
        )
        before = (
            stats.num_candidate_clusters,
            stats.num_candidates,
            stats.l_used,
        )
        result = search_by_coarse_centers(
            ivf, vectors[0], 5, 10**6, [], _take(ivf), stats
        )
        assert len(result) == 0
        after = (
            stats.num_candidate_clusters,
            stats.num_candidates,
            stats.l_used,
        )
        assert after == before

    def test_router_style_aggregation_matches_per_call(self, trained):
        ivf, vectors = trained
        clusters = list(range(ivf.num_clusters))
        split = clusters[:4], clusters[4:]
        separate = []
        for part in split:
            stats = QueryStats()
            search_by_coarse_centers(
                ivf, vectors[2], 5, 10**6, part, _take(ivf), stats
            )
            separate.append(stats)
        merged = QueryStats()
        for part in split:
            search_by_coarse_centers(
                ivf, vectors[2], 5, 10**6, part, _take(ivf), merged
            )
        assert merged.num_candidate_clusters == sum(
            s.num_candidate_clusters for s in separate
        )
        assert merged.num_candidates == sum(
            s.num_candidates for s in separate
        )
        assert merged.l_used == max(s.l_used for s in separate)


class TestBatchDecomposeAccounting:
    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(91)
        vectors = rng.normal(size=(400, 16))
        attrs = rng.integers(0, 50, size=400).astype(float)
        queries = rng.normal(size=(3, 16))
        return vectors, attrs, queries

    def test_distinct_ranges_all_counted(self, dataset):
        vectors, attrs, queries = dataset
        ranges = [(0.0, 20.0), (10.0, 40.0), (20.0, 49.0)]
        for cls in (RangePQ, RangePQPlus):
            index = cls.build(vectors, attrs, **BUILD)
            batch = index.batch_search(queries, ranges, k=5)
            assert batch.stats.num_queries == 3
            for timer in (
                "decompose_ms", "table_ms", "rank_ms", "fetch_ms", "adc_ms"
            ):
                per_request = [getattr(r.stats, timer) for r in batch.results]
                assert all(ms > 0.0 for ms in per_request)
                assert getattr(batch.stats, timer) == pytest.approx(
                    sum(per_request)
                )
            assert batch.stats.num_candidates == sum(
                r.stats.num_candidates for r in batch.results
            )
