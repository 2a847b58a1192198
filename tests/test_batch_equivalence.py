"""``batch_search`` must be bitwise identical to sequential ``query`` calls.

These tests pin that contract for every index class in the repo,
including under lazy deletion and after the deletion-triggered global
rebuild of RangePQ+, together with the batch counters: each total is the
sum of the per-request stats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BruteForceRangeIndex,
    MilvusLikeIndex,
    RIIIndex,
    VBaseIndex,
)
from repro.core import RangePQ, RangePQPlus, execute_batch

BUILD_KWARGS = dict(num_subspaces=4, num_clusters=16, num_codewords=32, seed=0)


def make_dataset(seed: int = 7, n: int = 500, dim: int = 16):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(8, dim))
    labels = rng.integers(0, 8, size=n)
    vectors = centers[labels] + rng.normal(size=(n, dim))
    attrs = rng.integers(0, 100, size=n).astype(np.float64)
    return vectors, attrs, rng


def make_requests(vectors, rng, num: int = 24):
    """A mixed request stream: duplicates, shared ranges, empty + full spans."""
    pool = vectors[rng.integers(0, len(vectors), size=6)] + rng.normal(
        size=(6, vectors.shape[1])
    )
    picks = rng.integers(0, len(pool), size=num)
    queries = pool[picks]
    templates = [(10.0, 30.0), (0.0, 99.0), (40.0, 45.0), (200.0, 300.0)]
    ranges = [templates[int(t)] for t in rng.integers(0, len(templates), num)]
    # Guarantee at least one exact duplicate request and one empty range.
    queries[1] = queries[0]
    ranges[1] = ranges[0]
    ranges[2] = (200.0, 300.0)
    return queries, ranges


BUILDERS = {
    "RangePQ": lambda v, a: RangePQ.build(v, a, **BUILD_KWARGS),
    "RangePQ+": lambda v, a: RangePQPlus.build(v, a, epsilon=24, **BUILD_KWARGS),
    "BruteForce": lambda v, a: BruteForceRangeIndex.build(v, a),
    "Milvus": lambda v, a: MilvusLikeIndex.build(v, a, **BUILD_KWARGS),
    "RII": lambda v, a: RIIIndex.build(v, a, l_candidates=200, **BUILD_KWARGS),
    "VBase": lambda v, a: VBaseIndex.build(v, a, **BUILD_KWARGS),
}


def assert_batch_matches_sequential(index, queries, ranges, k):
    batch = index.batch_search(queries, ranges, k)
    assert len(batch) == len(queries)
    for i, (lo, hi) in enumerate(ranges):
        expected = index.query(queries[i], lo, hi, k)
        np.testing.assert_array_equal(batch[i].ids, expected.ids)
        # Bitwise identity, not allclose.
        np.testing.assert_array_equal(batch[i].distances, expected.distances)
    return batch


@pytest.mark.parametrize("method", sorted(BUILDERS))
def test_batch_matches_sequential(method):
    vectors, attrs, rng = make_dataset()
    index = BUILDERS[method](vectors, attrs)
    queries, ranges = make_requests(vectors, rng)
    assert_batch_matches_sequential(index, queries, ranges, k=10)


@pytest.mark.parametrize("method", ["RangePQ", "RangePQ+"])
def test_batch_matches_sequential_under_lazy_deletion(method):
    vectors, attrs, rng = make_dataset(seed=11)
    index = BUILDERS[method](vectors, attrs)
    victims = rng.choice(len(vectors), size=len(vectors) * 3 // 10, replace=False)
    index.delete_many([int(oid) for oid in victims])
    queries, ranges = make_requests(vectors, rng)
    assert_batch_matches_sequential(index, queries, ranges, k=10)


def test_batch_matches_sequential_after_global_rebuild():
    vectors, attrs, rng = make_dataset(seed=13)
    index = RangePQPlus.build(vectors, attrs, epsilon=24, **BUILD_KWARGS)
    before = index.rebuild_count
    # Deleting well past half the set forces the 2·inv > ζ global rebuild.
    victims = rng.choice(len(vectors), size=int(len(vectors) * 0.7), replace=False)
    index.delete_many([int(oid) for oid in victims])
    assert index.rebuild_count > before
    queries, ranges = make_requests(vectors, rng)
    assert_batch_matches_sequential(index, queries, ranges, k=10)


class TestBatchStats:
    def test_batch_counters(self):
        vectors, attrs, rng = make_dataset(seed=17)
        index = RangePQPlus.build(vectors, attrs, epsilon=24, **BUILD_KWARGS)
        queries, ranges = make_requests(vectors, rng, num=32)
        stats = index.batch_search(queries, ranges, 10).stats
        assert stats.num_queries == 32
        assert stats.wall_ms > 0.0
        assert stats.qps > 0.0
        # Every request ran inside the batch, so the phases fit in the wall
        # (tests/test_stats_accounting.py pins each total to its sum).
        assert (
            stats.decompose_ms + stats.table_ms + stats.rank_ms
            + stats.fetch_ms + stats.adc_ms
        ) <= stats.wall_ms

    def test_cache_hits_on_repeat_batch(self):
        vectors, attrs, rng = make_dataset(seed=19)
        index = RangePQ.build(vectors, attrs, **BUILD_KWARGS)
        queries, ranges = make_requests(vectors, rng)
        # Requests over the empty range never reach the ADC table.
        looked_up = [
            query.tobytes()
            for query, span in zip(queries, ranges)
            if span != (200.0, 300.0)
        ]
        index.ivf.clear_caches()
        first = index.batch_search(queries, ranges, 10)
        # Cold cache: one miss per distinct vector, a hit per repeat.
        assert first.stats.table_cache_misses == len(set(looked_up))
        assert first.stats.table_cache_hits == len(looked_up) - len(set(looked_up))
        second = index.batch_search(queries, ranges, 10)
        assert second.stats.table_cache_misses == 0
        assert second.stats.table_cache_hits == len(looked_up)
        assert second.stats.table_cache_hit_rate == 1.0

    def test_empty_range_reports_zero_l_used(self):
        vectors, attrs, rng = make_dataset(seed=29)
        index = RangePQPlus.build(vectors, attrs, epsilon=24, **BUILD_KWARGS)
        batch = index.batch_search(vectors[:1], [(200.0, 300.0)], 10)
        assert len(batch[0]) == 0
        assert batch[0].stats.num_in_range == 0
        assert batch[0].stats.l_used == 0


class TestBatchArguments:
    def test_l_budget_override_matches_query_l(self):
        vectors, attrs, rng = make_dataset(seed=31)
        index = RangePQ.build(vectors, attrs, **BUILD_KWARGS)
        queries, ranges = make_requests(vectors, rng, num=6)
        batch = execute_batch(index, queries, ranges, 10, l_budget=37)
        for i, (lo, hi) in enumerate(ranges):
            expected = index.query(queries[i], lo, hi, 10, l_budget=37)
            np.testing.assert_array_equal(batch[i].ids, expected.ids)
            np.testing.assert_array_equal(batch[i].distances, expected.distances)

    def test_l_budget_rejected_on_fallback_path(self):
        vectors, attrs, _ = make_dataset(seed=37)
        index = BruteForceRangeIndex.build(vectors, attrs)
        with pytest.raises(ValueError, match="l_budget"):
            index.batch_search(vectors[:2], [(0.0, 99.0)] * 2, 5, l_budget=10)

    def test_mismatched_lengths_rejected(self):
        vectors, attrs, _ = make_dataset(seed=41)
        index = BruteForceRangeIndex.build(vectors, attrs)
        with pytest.raises(ValueError, match="queries but"):
            index.batch_search(vectors[:3], [(0.0, 99.0)] * 2, 5)

    def test_invalid_k_rejected(self):
        vectors, attrs, _ = make_dataset(seed=43)
        index = BruteForceRangeIndex.build(vectors, attrs)
        with pytest.raises(ValueError, match="k must be"):
            index.batch_search(vectors[:1], [(0.0, 99.0)], 0)
