"""Tests for range decomposition and cluster-guided retrieval (Alg. 1/2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree import (
    RangeTree,
    count_in_range,
    cover_cluster_ids,
    cover_count_in_cluster,
    cover_find_kth_in_cluster,
    cover_take_cluster,
    decompose,
    find_kth_in_cluster,
    iter_range_objects,
)


@pytest.fixture
def populated():
    """Tree of 200 objects: attr = oid, cluster = oid mod 7."""
    tree = RangeTree()
    triples = [(float(i), i, i % 7) for i in range(200)]
    tree.build(triples)
    return tree, triples


class TestDecompose:
    def test_cover_is_exact(self, populated):
        tree, triples = populated
        cover = decompose(tree, 50.0, 120.0)
        covered = set()
        for node in cover.full:
            covered.update(n.oid for n in _subtree_valid(node))
        covered.update(n.oid for n in cover.singles)
        expected = {oid for attr, oid, _ in triples if 50 <= attr <= 120}
        assert covered == expected

    def test_cover_pieces_are_disjoint(self, populated):
        tree, _ = populated
        cover = decompose(tree, 30.0, 170.0)
        seen: set[int] = set()
        for node in cover.full:
            oids = {n.oid for n in _subtree_valid(node)}
            assert not oids & seen
            seen |= oids
        for node in cover.singles:
            assert node.oid not in seen
            seen.add(node.oid)

    def test_cover_size_logarithmic(self):
        tree = RangeTree()
        n = 4096
        tree.build([(float(i), i, 0) for i in range(n)])
        cover = decompose(tree, 100.0, 4000.0)
        # Theorem 3.1: O(log n) pieces; generous constant factor of 4.
        assert cover.node_count <= 4 * int(np.log2(n))

    def test_empty_range(self, populated):
        tree, _ = populated
        cover = decompose(tree, 500.0, 600.0)
        assert cover.node_count == 0
        assert cover_cluster_ids(cover) == set()

    def test_inverted_range(self, populated):
        tree, _ = populated
        cover = decompose(tree, 120.0, 50.0)
        assert cover.node_count == 0

    def test_single_point_range(self, populated):
        tree, _ = populated
        cover = decompose(tree, 42.0, 42.0)
        total = len(cover.singles) + sum(
            sum(n.num.values()) for n in cover.full
        )
        assert total == 1

    def test_full_range_is_root(self, populated):
        tree, _ = populated
        cover = decompose(tree, -1.0, 1000.0)
        assert cover.full == [tree.root]
        assert not cover.singles

    def test_cluster_ids_match_filter(self, populated):
        tree, triples = populated
        cover = decompose(tree, 10.0, 25.0)
        expected = {cluster for attr, _, cluster in triples if 10 <= attr <= 25}
        assert cover_cluster_ids(cover) == expected

    def test_count_in_range(self, populated):
        tree, _ = populated
        assert count_in_range(tree, 50.0, 120.0) == 71
        assert count_in_range(tree, -10.0, -5.0) == 0

    def test_decompose_after_deletions(self, populated):
        tree, triples = populated
        for i in range(0, 200, 3):
            tree.delete(float(i), i)
        cover = decompose(tree, 40.0, 160.0)
        covered = set()
        for node in cover.full:
            covered.update(n.oid for n in _subtree_valid(node))
        covered.update(n.oid for n in cover.singles)
        expected = {
            oid for attr, oid, _ in triples if 40 <= attr <= 160 and oid % 3 != 0
        }
        assert covered == expected


class TestClusterRetrieval:
    def test_kth_in_cluster_matches_sorted_order(self, populated):
        tree, triples = populated
        root = tree.root
        members = sorted(oid for _, oid, c in triples if c == 3)
        for rank, oid in enumerate(members, start=1):
            assert find_kth_in_cluster(root, 3, rank) == oid

    def test_kth_out_of_range_raises(self, populated):
        tree, _ = populated
        with pytest.raises(IndexError):
            find_kth_in_cluster(tree.root, 3, 0)
        with pytest.raises(IndexError):
            find_kth_in_cluster(tree.root, 3, 10_000)

    def test_iter_cluster_matches_kth(self, populated):
        # A cluster's run is its rank order over the whole tree.
        tree, _ = populated
        got = tree.runs[5][1]
        expected = [
            find_kth_in_cluster(tree.root, 5, rank)
            for rank in range(1, tree.root.count_in_cluster(5) + 1)
        ]
        assert got == expected

    def test_iter_cluster_skips_deleted(self, populated):
        tree, _ = populated
        tree.delete(5.0, 5)  # oid 5 is in cluster 5
        assert 5 not in tree.runs[5][1]
        assert 5 not in cover_take_cluster(decompose(tree, 0.0, 199.0), 5, None)

    def test_iter_cluster_missing_cluster(self, populated):
        tree, _ = populated
        assert cover_take_cluster(decompose(tree, 0.0, 199.0), 99, None) == []

    def test_cover_take_cluster_exact(self, populated):
        tree, triples = populated
        cover = decompose(tree, 20.0, 150.0)
        expected = [
            oid for attr, oid, c in triples if c == 2 and 20 <= attr <= 150
        ]
        assert cover_take_cluster(cover, 2, None) == expected
        assert cover_take_cluster(cover, 2, 3) == expected[:3]
        assert cover_take_cluster(cover, 2, 0) == []

    def test_cover_count_in_cluster(self, populated):
        tree, triples = populated
        cover = decompose(tree, 20.0, 150.0)
        for cluster in range(7):
            expected = sum(
                1 for attr, _, c in triples if c == cluster and 20 <= attr <= 150
            )
            assert cover_count_in_cluster(cover, cluster) == expected

    def test_cover_find_kth_matches_iter(self, populated):
        tree, _ = populated
        cover = decompose(tree, 33.0, 140.0)
        for cluster in range(7):
            sequence = cover_take_cluster(cover, cluster, None)
            for rank, oid in enumerate(sequence, start=1):
                assert cover_find_kth_in_cluster(cover, cluster, rank) == oid
            with pytest.raises(IndexError):
                cover_find_kth_in_cluster(cover, cluster, len(sequence) + 1)


class TestPropertyBased:
    @settings(max_examples=80, deadline=None)
    @given(
        attrs=st.lists(st.integers(0, 40), min_size=1, max_size=60),
        deletions=st.sets(st.integers(0, 59)),
        lo=st.integers(-2, 42),
        span=st.integers(0, 44),
        cluster=st.integers(0, 3),
    )
    def test_cover_cluster_fetch_matches_naive(
        self, attrs, deletions, lo, span, cluster
    ):
        hi = lo + span
        tree = RangeTree()
        live = {}
        for oid, attr in enumerate(attrs):
            tree.insert(float(attr), oid, oid % 4)
            live[oid] = (attr, oid % 4)
        for oid in deletions:
            if oid in live:
                tree.delete(float(live[oid][0]), oid)
                del live[oid]
        cover = decompose(tree, lo, hi)
        expected = sorted(
            (attr, oid)
            for oid, (attr, c) in live.items()
            if c == cluster and lo <= attr <= hi
        )
        got = cover_take_cluster(cover, cluster, None)
        assert got == [oid for _, oid in expected]
        assert [
            cover_find_kth_in_cluster(cover, cluster, rank)
            for rank in range(1, len(got) + 1)
        ] == got
        assert cover_count_in_cluster(cover, cluster) == len(expected)


def _subtree_valid(node):
    """All valid nodes in a subtree (test helper, naive traversal)."""
    if node is None:
        return
    yield from _subtree_valid(node.left)
    if node.valid:
        yield node
    yield from _subtree_valid(node.right)
