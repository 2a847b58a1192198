"""Tests for the coarse quantizer and the dynamic IVFPQ index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ivf import CoarseQuantizer, IVFPQIndex, default_num_clusters


@pytest.fixture
def built_index(blob_data):
    index = IVFPQIndex(num_subspaces=4, num_clusters=6, num_codewords=16, seed=0)
    index.train(blob_data)
    index.add(range(len(blob_data)), blob_data)
    return index


class TestCoarseQuantizer:
    def test_default_num_clusters(self):
        assert default_num_clusters(1_000_000) == 1000
        assert default_num_clusters(100) == 10
        assert default_num_clusters(0) == 1

    def test_fit_and_assign(self, blob_data):
        cq = CoarseQuantizer(3, seed=0).fit(blob_data)
        labels = cq.assign(blob_data)
        assert labels.shape == (600,)
        assert len(np.unique(labels)) == 3

    def test_nearest_centers_sorted(self, blob_data, rng):
        cq = CoarseQuantizer(5, seed=0).fit(blob_data)
        query = rng.normal(size=8)
        order = cq.nearest_centers(query, 5)
        dist = cq.center_distances(query)
        assert (np.diff(dist[order]) >= 0).all()

    def test_nearest_centers_caps_count(self, blob_data, rng):
        cq = CoarseQuantizer(3, seed=0).fit(blob_data)
        assert len(cq.nearest_centers(rng.normal(size=8), 100)) == 3

    def test_untrained_raises(self, rng):
        cq = CoarseQuantizer(3)
        with pytest.raises(RuntimeError):
            cq.assign(rng.normal(size=(2, 8)))

    def test_rejects_k_gt_n(self, rng):
        with pytest.raises(ValueError):
            CoarseQuantizer(10).fit(rng.normal(size=(5, 3)))


class TestIVFPQStorage:
    def test_add_and_len(self, built_index, blob_data):
        assert len(built_index) == len(blob_data)
        assert 0 in built_index
        assert 599 in built_index
        assert 600 not in built_index

    def test_partition_is_total_and_disjoint(self, built_index, blob_data):
        seen = []
        for cluster in range(built_index.num_clusters):
            seen.extend(built_index.cluster_members(cluster).tolist())
        assert sorted(seen) == list(range(len(blob_data)))

    def test_cluster_of_consistent_with_members(self, built_index):
        for oid in [0, 100, 599]:
            cluster = built_index.cluster_of(oid)
            assert oid in built_index.cluster_members(cluster)

    def test_duplicate_add_rejected(self, built_index, blob_data):
        with pytest.raises(KeyError):
            built_index.add([0], blob_data[:1])

    def test_id_repeated_within_batch_rejected_before_mutation(
        self, built_index, blob_data
    ):
        with pytest.raises(ValueError, match="object 1002 repeated"):
            built_index.add([1001, 1002, 1002], blob_data[:3])
        assert len(built_index) == 600
        assert 1001 not in built_index and 1002 not in built_index
        built_index.check_invariants()

    def test_remove(self, built_index):
        cluster = built_index.cluster_of(42)
        built_index.remove([42])
        assert 42 not in built_index
        assert 42 not in built_index.cluster_members(cluster)
        assert len(built_index) == 599

    def test_remove_absent_raises(self, built_index):
        with pytest.raises(KeyError):
            built_index.remove([12345])

    def test_readd_after_remove(self, built_index, blob_data):
        built_index.remove([7])
        built_index.add([7], blob_data[7:8])
        assert 7 in built_index
        assert len(built_index) == 600

    def test_row_reuse_many_cycles(self, built_index, blob_data, rng):
        # Churn: repeated delete/insert must not corrupt storage.
        for _ in range(5):
            victims = rng.choice(600, size=50, replace=False).tolist()
            built_index.remove(victims)
            built_index.add(victims, blob_data[victims])
        assert len(built_index) == 600
        for oid in range(600):
            assert oid in built_index

    def test_mismatched_ids_vectors(self, built_index, blob_data):
        with pytest.raises(ValueError):
            built_index.add([1000, 1001], blob_data[:1])

    def test_untrained_add_raises(self, blob_data):
        index = IVFPQIndex(num_subspaces=4)
        with pytest.raises(RuntimeError):
            index.add([0], blob_data[:1])

    def test_cluster_sizes_sum_to_n(self, built_index):
        assert built_index.cluster_sizes().sum() == len(built_index)


class TestIVFPQSearch:
    def test_self_query_finds_self(self, built_index, blob_data):
        hits = 0
        for oid in range(0, 600, 60):
            result = built_index.search(blob_data[oid], k=5, nprobe=3)
            if oid in result.ids:
                hits += 1
        assert hits >= 8  # PQ is lossy but self-queries should mostly hit

    def test_results_sorted(self, built_index, rng):
        result = built_index.search(rng.normal(size=8), k=20, nprobe=6)
        assert (np.diff(result.distances) >= 0).all()

    def test_k_larger_than_candidates(self, built_index, rng):
        result = built_index.search(rng.normal(size=8), k=10_000, nprobe=6)
        assert len(result) == 600

    def test_allowed_mask_filters(self, built_index, blob_data):
        mask = np.zeros(600, dtype=bool)
        mask[:100] = True
        result = built_index.search(blob_data[5], k=50, nprobe=6, allowed_mask=mask)
        assert (result.ids < 100).all()

    def test_empty_mask_gives_empty_result(self, built_index, blob_data):
        mask = np.zeros(600, dtype=bool)
        result = built_index.search(blob_data[5], k=10, nprobe=6, allowed_mask=mask)
        assert len(result) == 0
        assert result.num_candidates == 0

    def test_more_probes_more_candidates(self, built_index, rng):
        query = rng.normal(size=8)
        few = built_index.search(query, k=5, nprobe=1)
        many = built_index.search(query, k=5, nprobe=6)
        assert many.num_candidates >= few.num_candidates
        assert many.num_probed == 6

    def test_adc_for_ids_matches_search_distances(self, built_index, blob_data):
        query = blob_data[3]
        result = built_index.search(query, k=10, nprobe=6)
        table = built_index.distance_table(query)
        recomputed = built_index.adc_for_ids(table, result.ids.tolist())
        np.testing.assert_allclose(recomputed, result.distances)

    def test_adc_for_ids_empty(self, built_index, rng):
        table = built_index.distance_table(rng.normal(size=8))
        assert built_index.adc_for_ids(table, []).shape == (0,)

    def test_probe_order_covers_all_clusters(self, built_index, rng):
        order = built_index.probe_order(rng.normal(size=8))
        assert sorted(order.tolist()) == list(range(built_index.num_clusters))


class TestIterCandidates:
    def test_yields_all_objects_once(self, built_index, rng):
        seen = [oid for oid, _ in built_index.iter_candidates(rng.normal(size=8))]
        assert sorted(seen) == list(range(600))

    def test_within_cluster_sorted(self, built_index, rng):
        query = rng.normal(size=8)
        pairs = list(built_index.iter_candidates(query))
        # Distances within each contiguous cluster block are ascending;
        # verify the global multiset matches adc_for_ids.
        table = built_index.distance_table(query)
        ids = [oid for oid, _ in pairs]
        dists = np.asarray([d for _, d in pairs])
        np.testing.assert_allclose(
            np.sort(dists), np.sort(built_index.adc_for_ids(table, ids))
        )


class TestMemoryAccounting:
    def test_memory_grows_with_objects(self, blob_data):
        index = IVFPQIndex(num_subspaces=4, num_clusters=4, num_codewords=16, seed=0)
        index.train(blob_data)
        empty = index.memory_bytes()
        index.add(range(100), blob_data[:100])
        assert index.memory_bytes() == empty + 100 * (4 + 4 + 4)
