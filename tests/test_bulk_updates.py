"""Tests for the batched insert/delete APIs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RangePQ, RangePQPlus


@pytest.fixture(params=[RangePQ, RangePQPlus])
def index_and_data(request):
    rng = np.random.default_rng(151)
    vectors = rng.normal(size=(400, 8))
    attrs = rng.integers(0, 50, size=400).astype(float)
    index = request.param.build(
        vectors, attrs, num_subspaces=2, num_clusters=10, num_codewords=16,
        seed=0,
    )
    extra_vectors = rng.normal(size=(80, 8))
    extra_attrs = rng.integers(0, 50, size=80).astype(float)
    return index, extra_vectors, extra_attrs, rng


def visible_ids(index, lo, hi):
    rng = np.random.default_rng(0)
    result = index.query(rng.normal(size=8), lo, hi, k=10**6, l_budget=10**6)
    return set(result.ids.tolist())


class TestInsertMany:
    def test_batch_matches_singles(self, index_and_data):
        index, vectors, attrs, _ = index_and_data
        ids = list(range(1000, 1080))
        index.insert_many(ids, vectors, attrs)
        assert len(index) == 480
        got = visible_ids(index, 0.0, 50.0)
        assert set(ids) <= got
        if isinstance(index, RangePQPlus):
            index.check_invariants()
        else:
            index.tree.check_invariants()

    def test_duplicate_in_batch_rejected_atomically(self, index_and_data):
        index, vectors, attrs, _ = index_and_data
        size_before = len(index)
        with pytest.raises(KeyError):
            index.insert_many([2000, 0], vectors[:2], attrs[:2])
        # Pre-check means nothing was inserted.
        assert len(index) == size_before
        assert 2000 not in index

    def test_id_repeated_within_batch_rejected_atomically(self, index_and_data):
        index, vectors, attrs, _ = index_and_data
        before = visible_ids(index, 0.0, 50.0)
        with pytest.raises(ValueError, match="object 1000 repeated"):
            index.insert_many([1000, 1000], vectors[:2], attrs[:2])
        assert len(index) == 400
        assert 1000 not in index
        assert visible_ids(index, 0.0, 50.0) == before
        index.check_invariants()

    def test_length_mismatch_rejected(self, index_and_data):
        index, vectors, attrs, _ = index_and_data
        with pytest.raises(ValueError):
            index.insert_many([1, 2], vectors[:3], attrs[:3])

    def test_empty_batch(self, index_and_data):
        index, vectors, attrs, _ = index_and_data
        index.insert_many([], vectors[:0], [])
        assert len(index) == 400

    def test_insert_many_into_fresh_plus_index(self):
        """Batch insertion from an empty hybrid tree creates the root."""
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(300, 8))
        attrs = rng.integers(0, 30, size=300).astype(float)
        seeded = RangePQPlus.build(
            vectors[:200], attrs[:200], num_subspaces=2, num_clusters=8,
            num_codewords=16, seed=0,
        )
        fresh = RangePQPlus(seeded.ivf.clone_empty(), epsilon=16)
        fresh.insert_many(range(100), vectors[200:300], attrs[200:300])
        assert len(fresh) == 100
        fresh.check_invariants()


class TestDeleteMany:
    def test_batch_delete(self, index_and_data):
        index, *_ = index_and_data
        index.delete_many(range(0, 100))
        assert len(index) == 300
        got = visible_ids(index, 0.0, 50.0)
        assert got == set(range(100, 400))

    def test_missing_id_rejected_atomically(self, index_and_data):
        index, *_ = index_and_data
        with pytest.raises(KeyError):
            index.delete_many([1, 2, 99999])
        # Pre-check: 1 and 2 must still be present.
        assert 1 in index and 2 in index

    def test_empty_batch(self, index_and_data):
        index, *_ = index_and_data
        index.delete_many([])
        assert len(index) == 400
