"""Per-cluster runs: the drain the query reads equals the paper's rank fetch.

``RangeTree.runs[c]`` holds cluster ``c``'s valid objects in ``(attr, oid)``
order and ``cover_take_cluster`` slices it.  These tests drive the tree
through every mutation that touches a run or the shape around it (bulk
build, insert, lazy delete, revalidation, subtree and global rebuilds) on
all-equal and duplicated attributes, and after every step compare the
slice against a brute-force filter and against ``FetchNewObject`` rank
queries over the ``num`` aggregates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import RangePQ
from repro.ivf import IVFPQIndex
from repro.parallel.shm import SharedIndexSearcher
from repro.tree import (
    RangeTree,
    cover_find_kth_in_cluster,
    cover_take_cluster,
    decompose,
)

_CLUSTERS = 4


class RunMachine(RuleBasedStateMachine):
    """Random tree mutations; runs checked against brute force and rank."""

    @initialize(
        distinct=st.sampled_from([1, 3, 8]),
        data=st.data(),
    )
    def build(self, distinct, data):
        # distinct == 1 makes every attribute equal.
        self.distinct = distinct
        attrs = data.draw(
            st.lists(st.integers(0, distinct - 1), max_size=40), label="attrs"
        )
        self.tree = RangeTree()
        self.live = {oid: (float(a), oid % _CLUSTERS) for oid, a in enumerate(attrs)}
        self.dead: dict[int, tuple[float, int]] = {}
        self.next_oid = len(attrs)
        self.tree.build(
            (attr, oid, cluster) for oid, (attr, cluster) in self.live.items()
        )

    @rule(data=st.data())
    def insert(self, data):
        attr = float(data.draw(st.integers(0, self.distinct - 1)))
        cluster = data.draw(st.integers(0, _CLUSTERS - 1))
        self.tree.insert(attr, self.next_oid, cluster)
        self.live[self.next_oid] = (attr, cluster)
        self.next_oid += 1

    @rule(count=st.integers(5, 30))
    def insert_ascending(self, count):
        """Right-spine inserts: keys ascend, so subtrees go out of balance
        and are rebuilt while the runs grow at one end."""
        attr = float(self.distinct - 1)
        for _ in range(count):
            cluster = self.next_oid % _CLUSTERS
            self.tree.insert(attr, self.next_oid, cluster)
            self.live[self.next_oid] = (attr, cluster)
            self.next_oid += 1

    @precondition(lambda self: bool(self.live))
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(sorted(self.live)))
        attr, cluster = self.live.pop(oid)
        assert self.tree.delete(attr, oid) == cluster
        self.dead[oid] = (attr, cluster)

    @precondition(lambda self: bool(self.dead))
    @rule(data=st.data())
    def revalidate(self, data):
        """Re-insert a deleted object: revalidates its node while the node
        survives, plain insert after a global rebuild dropped it."""
        oid = data.draw(st.sampled_from(sorted(self.dead)))
        attr, cluster = self.dead.pop(oid)
        self.tree.insert(attr, oid, cluster)
        self.live[oid] = (attr, cluster)

    @rule()
    def rebuild(self):
        self.tree.rebuild()

    @invariant()
    def runs_are_the_rank_order(self):
        self.tree.check_invariants()
        top = self.distinct - 1
        for lo, hi in ((-1, top + 1), (0, 0), (top, top), (1, top - 1)):
            cover = decompose(self.tree, lo, hi)
            for cluster in range(_CLUSTERS):
                expected = [
                    oid
                    for _, oid in sorted(
                        (attr, oid)
                        for oid, (attr, c) in self.live.items()
                        if c == cluster and lo <= attr <= hi
                    )
                ]
                assert cover_take_cluster(cover, cluster, None) == expected
                assert cover_take_cluster(cover, cluster, 3) == expected[:3]
                assert [
                    cover_find_kth_in_cluster(cover, cluster, rank)
                    for rank in range(1, len(expected) + 1)
                ] == expected


RunMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestRunMachine = RunMachine.TestCase


_DIM = 8
_TRAINING = np.random.default_rng(307).normal(size=(300, _DIM))
_BASE_IVF = IVFPQIndex(num_subspaces=2, num_clusters=6, num_codewords=16, seed=0)
_BASE_IVF.train(_TRAINING)


class FetchModeMachine(RuleBasedStateMachine):
    """``fetch_mode="guided"`` (runs) and ``"rank"`` (``num`` walk) agree
    bitwise under truncation while the index churns on duplicate attrs."""

    @initialize()
    def setup(self):
        self.index = RangePQ(_BASE_IVF.clone_empty())
        self.rng = np.random.default_rng(5)
        self.next_oid = 0
        self.live: set[int] = set()

    @rule(attr=st.integers(0, 4))
    def insert(self, attr):
        self.index.insert(self.next_oid, self.rng.normal(size=_DIM), float(attr))
        self.live.add(self.next_oid)
        self.next_oid += 1

    @rule(count=st.integers(5, 40), attr=st.integers(0, 4))
    def insert_many(self, count, attr):
        ids = list(range(self.next_oid, self.next_oid + count))
        self.index.insert_many(
            ids, self.rng.normal(size=(count, _DIM)), [float(attr)] * count
        )
        self.live.update(ids)
        self.next_oid += count

    @precondition(lambda self: bool(self.live))
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(sorted(self.live)))
        self.index.delete(oid)
        self.live.remove(oid)

    @rule(
        lo=st.integers(-1, 4),
        span=st.integers(0, 5),
        l_budget=st.integers(1, 40),
    )
    def guided_equals_rank(self, lo, span, l_budget):
        query = self.rng.normal(size=_DIM)
        guided = self.index.query(query, lo, lo + span, 5, l_budget=l_budget)
        rank = self.index.query(
            query, lo, lo + span, 5, l_budget=l_budget, fetch_mode="rank"
        )
        assert np.array_equal(guided.ids, rank.ids)
        assert np.array_equal(guided.distances, rank.distances)
        assert guided.stats.num_candidates == rank.stats.num_candidates

    @invariant()
    def sound(self):
        if hasattr(self, "index"):
            self.index.check_invariants()


FetchModeMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestFetchModeMachine = FetchModeMachine.TestCase


class TestSharedSearcherOnDuplicates:
    """The shared attr-sorted layout drains in the same (attr, oid) order,
    so truncated results stay bitwise equal when attributes repeat."""

    @pytest.fixture(scope="class")
    def index(self):
        rng = np.random.default_rng(17)
        vectors = rng.normal(size=(400, _DIM))
        attrs = rng.integers(0, 6, size=400).astype(float)
        index = RangePQ(_BASE_IVF.clone_empty())
        index.insert_many(range(400), vectors, attrs)
        for oid in range(0, 400, 7):
            index.delete(oid)
        return index

    @pytest.mark.parametrize("l_budget", [3, 37, 150])
    def test_truncated_search_matches_rangepq(self, index, l_budget):
        searcher = SharedIndexSearcher.from_index(index)
        queries = np.random.default_rng(3).normal(size=(6, _DIM))
        for query, (lo, hi) in zip(queries, [(0, 5), (1, 3), (2, 2)] * 2):
            want = index.query(query, lo, hi, 10, l_budget=l_budget)
            got = searcher.search(query, lo, hi, 10, l_budget=l_budget)
            assert np.array_equal(want.ids, got.ids)
            assert np.array_equal(want.distances, got.distances)
