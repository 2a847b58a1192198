"""Tests for IVF-Flat and the probe-vs-quantization error decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ivf import IVFFlatIndex, IVFPQIndex


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(251)
    centers = rng.normal(scale=10.0, size=(10, 16))
    vectors = centers[rng.integers(0, 10, size=800)] + rng.normal(size=(800, 16))
    queries = centers[rng.integers(0, 10, size=15)] + rng.normal(size=(15, 16))
    return vectors, queries


@pytest.fixture(scope="module")
def built(data):
    vectors, _ = data
    index = IVFFlatIndex(num_clusters=10, seed=0)
    index.train(vectors)
    index.add(range(len(vectors)), vectors)
    return index


class TestBasics:
    def test_len_contains(self, built):
        assert len(built) == 800
        assert 0 in built and 900 not in built

    def test_untrained_rejected(self, data):
        vectors, _ = data
        index = IVFFlatIndex()
        with pytest.raises(RuntimeError):
            index.add([0], vectors[:1])
        with pytest.raises(RuntimeError):
            index.search(vectors[0], 1)

    def test_duplicate_add_rejected(self, built, data):
        vectors, _ = data
        with pytest.raises(KeyError):
            built.add([0], vectors[:1])

    def test_id_repeated_within_batch_rejected_before_mutation(self, data):
        vectors, _ = data
        index = IVFFlatIndex(num_clusters=6, seed=0)
        index.train(vectors)
        index.add(range(100), vectors[:100])
        with pytest.raises(ValueError, match="object 902 repeated"):
            index.add([901, 902, 902], vectors[:3])
        assert len(index) == 100
        assert 901 not in index and 902 not in index
        index.check_invariants()

    def test_remove_and_readd(self, data):
        vectors, _ = data
        index = IVFFlatIndex(num_clusters=6, seed=0)
        index.train(vectors)
        index.add(range(100), vectors[:100])
        index.remove([5, 6])
        assert len(index) == 98
        index.add([5], vectors[5:6])
        assert 5 in index and 6 not in index


class TestSearch:
    def test_full_probe_is_exact(self, built, data):
        """Probing all clusters, IVF-Flat equals exact brute force."""
        vectors, queries = data
        for query in queries[:5]:
            result = built.search(query, 10, nprobe=built.num_clusters)
            exact = np.argsort(((vectors - query) ** 2).sum(axis=1))[:10]
            np.testing.assert_array_equal(np.sort(result.ids), np.sort(exact))

    def test_mask_filter(self, built, data):
        vectors, _ = data
        mask = np.zeros(800, dtype=bool)
        mask[:50] = True
        result = built.search(vectors[0], 20, nprobe=10, allowed_mask=mask)
        assert (result.ids < 50).all()

    def test_bad_k(self, built, data):
        _, queries = data
        with pytest.raises(ValueError):
            built.search(queries[0], 0)

    def test_error_decomposition(self, data):
        """Flat@full-probe >= Flat@partial >= PQ@partial (on overlap):
        the flat/partial gap is probe error, the partial flat/PQ gap is
        quantization error."""
        vectors, queries = data
        flat = IVFFlatIndex(num_clusters=10, seed=0)
        flat.train(vectors)
        flat.add(range(len(vectors)), vectors)
        pq = IVFPQIndex(4, num_clusters=10, num_codewords=16, seed=0)
        pq.train(vectors)
        pq.add(range(len(vectors)), vectors)

        def overlap(index, nprobe):
            total = 0.0
            for query in queries:
                exact = set(
                    np.argsort(((vectors - query) ** 2).sum(axis=1))[:10].tolist()
                )
                got = set(index.search(query, 10, nprobe=nprobe).ids.tolist())
                total += len(exact & got) / 10
            return total / len(queries)

        full_flat = overlap(flat, 10)
        part_flat = overlap(flat, 2)
        part_pq = overlap(pq, 2)
        assert full_flat == 1.0
        assert part_flat >= part_pq - 0.05

    def test_memory_far_exceeds_pq(self, built, data):
        vectors, _ = data
        pq = IVFPQIndex(4, num_clusters=10, num_codewords=16, seed=0)
        pq.train(vectors)
        pq.add(range(len(vectors)), vectors)
        assert built.memory_bytes() > 3 * pq.memory_bytes()
