"""The chunked and per-object fetch paths must be semantically identical."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core import RangePQPlus
from repro.core.results import QueryStats
from repro.core.search import search_by_coarse_centers


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(231)
    vectors = rng.normal(size=(400, 8))
    attrs = rng.integers(0, 50, size=400).astype(float)
    index = RangePQPlus.build(
        vectors, attrs, num_subspaces=2, num_clusters=10, num_codewords=16,
        epsilon=20, seed=0,
    )
    return index, vectors, rng


class TestChunkedEquivalence:
    @pytest.mark.parametrize("l_budget", [7, 50, 10**6])
    def test_same_results_both_paths(self, setup, l_budget):
        index, vectors, rng = setup
        query = vectors[3]
        lo, hi = 5.0, 45.0
        cover = index._decompose(lo, hi)
        clusters = sorted(
            set(cover.partial_members)
            | {c for n in cover.full_subtrees for c in n.sp}
            | {c for n in cover.full_buckets for c in n.pn}
        )
        chunked = search_by_coarse_centers(
            index.ivf, query, 10**6, l_budget, clusters,
            lambda c, limit: kernels.drain_chunks(
                index._iter_cover_cluster_chunks(cover, c), limit
            ),
            QueryStats(),
        )
        flat = search_by_coarse_centers(
            index.ivf, query, 10**6, l_budget, clusters,
            lambda c, limit: kernels.drain(
                index._iter_cover_cluster(cover, c), limit
            ),
            QueryStats(),
        )
        assert set(chunked.ids.tolist()) == set(flat.ids.tolist())
        np.testing.assert_allclose(
            np.sort(chunked.distances), np.sort(flat.distances)
        )

    def test_chunk_budget_trims_partial_chunk(self, setup):
        index, vectors, _ = setup
        cover = index._decompose(0.0, 50.0)
        clusters = sorted({c for n in cover.full_subtrees for c in n.sp})
        stats = QueryStats()
        result = search_by_coarse_centers(
            index.ivf, vectors[0], 10**6, 13, clusters,
            lambda c, limit: kernels.drain_chunks(
                index._iter_cover_cluster_chunks(cover, c), limit
            ),
            stats,
        )
        assert stats.num_candidates == 13

    def test_iter_cluster_chunks_match_flat_iteration(self, setup):
        from repro.core.rangepq_plus import _iter_cluster, _iter_cluster_chunks

        index, *_ = setup
        for cluster in range(index.ivf.num_clusters):
            flat = list(_iter_cluster(index.root, cluster))
            chunked = [
                oid
                for chunk in _iter_cluster_chunks(index.root, cluster)
                for oid in chunk
            ]
            assert flat == chunked
