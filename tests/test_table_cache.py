"""Tests for the query-keyed LRU caches shared by concurrent readers."""

from __future__ import annotations

import copy
import sys
import threading

import numpy as np
import pytest

from repro.ivf import DEFAULT_CACHE_CAPACITY, IVFPQIndex, LRUCache


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_capacity_zero_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats().misses == 1

    def test_clear_counts_invalidations_and_keeps_stats(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats.invalidations == 1
        assert stats.hits == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_empty_hit_rate_is_zero(self):
        assert LRUCache(4).stats().hit_rate == 0.0

    def test_concurrent_get_put_keeps_counters_exact(self):
        """Readers of one IndexService share this cache: ``get``'s lookup
        followed by ``move_to_end`` must not race an evicting ``put``
        (``KeyError`` before the mutex), and no counter update is lost."""
        cache = LRUCache(4)
        workers, ops = 4, 200_000
        errors: list[BaseException] = []

        def hammer(seed: int) -> None:
            state = seed
            try:
                for step in range(ops):
                    state = (state * 1103515245 + 12345) % 2**31
                    key = (state >> 8) % 8
                    if step & 1:
                        cache.put(key, state)
                    else:
                        cache.get(key)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(1, workers + 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        assert stats.hits + stats.misses == workers * ops // 2
        assert stats.size <= 4

    def test_deepcopy_is_a_cold_cache_of_the_same_capacity(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        clone = copy.deepcopy(cache)
        assert clone.capacity == 4
        assert len(clone) == 0
        clone.put("b", 2)
        assert "b" not in cache


@pytest.fixture(scope="module")
def trained_ivf():
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(300, 16))
    ivf = IVFPQIndex(4, num_clusters=8, num_codewords=16, seed=0)
    ivf.train(vectors)
    return ivf, vectors, rng


class TestIVFCaches:
    def test_default_capacity_wired_through(self, trained_ivf):
        ivf, *_ = trained_ivf
        assert ivf.table_cache.capacity == DEFAULT_CACHE_CAPACITY
        assert ivf.center_cache.capacity == DEFAULT_CACHE_CAPACITY

    def test_repeat_distance_table_is_a_cache_hit(self, trained_ivf):
        ivf, vectors, _ = trained_ivf
        ivf.clear_caches()
        first = ivf.distance_table(vectors[0])
        second = ivf.distance_table(vectors[0])
        assert second is first  # same read-only object, not a recompute
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, ivf.pq.distance_table(vectors[0]))
        assert ivf.table_cache.hits == 1
        assert ivf.table_cache.misses == 1

    def test_retrain_invalidates_caches(self, trained_ivf):
        _, vectors, _ = trained_ivf
        ivf = IVFPQIndex(4, num_clusters=8, num_codewords=16, seed=0)
        ivf.train(vectors)
        ivf.distance_table(vectors[0])
        ivf.center_distances(vectors[0])
        assert len(ivf.table_cache) == 1
        ivf.train(vectors)
        assert len(ivf.table_cache) == 0
        assert len(ivf.center_cache) == 0
        assert ivf.table_cache.stats().invalidations >= 1
        # A stale table would now be wrong; the re-fill must be a miss.
        hits_before = ivf.table_cache.hits
        ivf.distance_table(vectors[0])
        assert ivf.table_cache.hits == hits_before

    def test_retrain_drops_center_distance_entries(self, trained_ivf):
        """Regression: retrain must invalidate the center cache too.

        A stale center-distance entry after retraining would rank coarse
        clusters against the OLD centroids — silently wrong probe orders —
        so the refill after ``train()`` must be a miss, never a hit.
        """
        _, vectors, _ = trained_ivf
        ivf = IVFPQIndex(4, num_clusters=8, num_codewords=16, seed=0)
        ivf.train(vectors)
        ivf.center_distances(vectors[0])
        assert len(ivf.center_cache) == 1
        ivf.train(vectors)
        assert len(ivf.center_cache) == 0
        assert ivf.center_cache.stats().invalidations >= 1
        hits_before = ivf.center_cache.hits
        refreshed = ivf.center_distances(vectors[0])
        assert ivf.center_cache.hits == hits_before  # refill was a miss
        np.testing.assert_array_equal(
            refreshed, ivf.coarse.center_distances(vectors[0])
        )

    def test_clone_empty_gets_fresh_caches(self, trained_ivf):
        ivf, vectors, _ = trained_ivf
        ivf.distance_table(vectors[0])
        clone = ivf.clone_empty()
        assert clone.table_cache is not ivf.table_cache
        assert len(clone.table_cache) == 0
        assert clone.table_cache.capacity == ivf.table_cache.capacity

    def test_cache_stats_snapshot(self, trained_ivf):
        ivf, *_ = trained_ivf
        stats = ivf.cache_stats()
        assert set(stats) == {"table", "center"}
        assert stats["table"].capacity == DEFAULT_CACHE_CAPACITY

    def test_non_vector_query_rejected(self, trained_ivf):
        ivf, vectors, _ = trained_ivf
        with pytest.raises(ValueError):
            ivf.distance_table(vectors[:2])

    def test_capacity_zero_index_still_correct(self, trained_ivf):
        _, vectors, _ = trained_ivf
        ivf = IVFPQIndex(4, num_clusters=8, num_codewords=16, seed=0,
                         cache_capacity=0)
        ivf.train(vectors)
        first = ivf.distance_table(vectors[0])
        second = ivf.distance_table(vectors[0])
        assert second is not first
        np.testing.assert_array_equal(first, second)
        assert len(ivf.table_cache) == 0
