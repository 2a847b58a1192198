"""Cross-process equivalence tests: the parallel executor's answers must
be bitwise-identical to serial ``index.query`` for both partitioning
strategies, every worker count, and truncated candidate budgets — and
all shared memory must be unlinked after shutdown."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import RangePQ, execute_batch
from repro.parallel import ParallelQueryExecutor, WorkerError

BUILD = dict(num_subspaces=4, num_clusters=8, num_codewords=16, seed=0)
FULL_BUDGET = 10**6
RANGES = [(20.0, 70.0), (0.0, 100.0), (45.0, 55.0), (80.0, 81.0)]


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(23)
    n = 600
    vectors = rng.standard_normal((n, 16))
    attrs = rng.random(n) * 100.0
    queries = rng.standard_normal((4, 16))
    return vectors, attrs, queries


@pytest.fixture(scope="module")
def index(dataset):
    vectors, attrs, _ = dataset
    return RangePQ.build(vectors, attrs, **BUILD)


def _assert_bitwise(index, executor, queries, *, l_budget):
    for query in queries:
        for lo, hi in RANGES:
            want = index.query(query, lo, hi, k=10, l_budget=l_budget)
            got = executor.search(query, lo, hi, 10, l_budget=l_budget)
            assert np.array_equal(want.ids, got.ids)
            assert np.array_equal(want.distances, got.distances)


@pytest.mark.parametrize("partition", ["cluster", "shard"])
@pytest.mark.parametrize("workers", [1, 2, 4])
class TestEquivalence:
    def test_full_budget(self, index, dataset, partition, workers):
        _, _, queries = dataset
        with ParallelQueryExecutor(
            index, num_workers=workers, partition=partition
        ) as executor:
            _assert_bitwise(index, executor, queries, l_budget=FULL_BUDGET)


@pytest.mark.parametrize("workers", [1, 2, 4])
class TestClusterTruncated:
    def test_truncated_budget_matches_serial(self, index, dataset, workers):
        """The cluster partition replays the serial drain order exactly,
        so even budget-limited results are bitwise identical."""
        _, _, queries = dataset
        with ParallelQueryExecutor(
            index, num_workers=workers, partition="cluster"
        ) as executor:
            _assert_bitwise(index, executor, queries, l_budget=50)


class TestShardTruncated:
    def test_truncated_budget_identical_across_worker_counts(
        self, index, dataset
    ):
        """The shard partition budgets each sub-range like a per-shard
        service (router semantics, not single-index semantics), so the
        contract under truncation is worker-count independence: 2 and 4
        workers must reproduce the in-process sharded answer bitwise."""
        _, _, queries = dataset
        with ParallelQueryExecutor(
            index, num_workers=1, partition="shard"
        ) as reference:
            want = [
                reference.search(query, lo, hi, 10, l_budget=50)
                for query in queries
                for lo, hi in RANGES
            ]
        for workers in (2, 4):
            with ParallelQueryExecutor(
                index, num_workers=workers, partition="shard"
            ) as executor:
                got = [
                    executor.search(query, lo, hi, 10, l_budget=50)
                    for query in queries
                    for lo, hi in RANGES
                ]
            for a, b in zip(want, got):
                assert np.array_equal(a.ids, b.ids)
                assert np.array_equal(a.distances, b.distances)


class TestBatch:
    def test_search_batch_equals_search(self, index, dataset):
        _, _, queries = dataset
        ranges = [RANGES[i % len(RANGES)] for i in range(len(queries))]
        with ParallelQueryExecutor(index, num_workers=2) as executor:
            batch = executor.search_batch(queries, ranges, 10)
            for i, (lo, hi) in enumerate(ranges):
                single = executor.search(queries[i], lo, hi, 10)
                assert np.array_equal(batch[i].ids, single.ids)
                assert np.array_equal(batch[i].distances, single.distances)

    def test_execute_batch_parallel_backend(self, index, dataset):
        """The parallel batch path answers what the serial one does."""
        _, _, queries = dataset
        ranges = [RANGES[i % len(RANGES)] for i in range(len(queries))]
        serial = execute_batch(index, queries, ranges, k=10)
        with ParallelQueryExecutor(index, num_workers=2) as executor:
            parallel = executor.search_batch(queries, ranges, 10)
        for want, got in zip(serial.results, parallel):
            assert np.array_equal(want.ids, got.ids)
            assert np.array_equal(want.distances, got.distances)


class TestDegradation:
    def test_worker_error_falls_back_to_serial(
        self, index, dataset, monkeypatch
    ):
        _, _, queries = dataset
        with ParallelQueryExecutor(index, num_workers=1) as executor:

            def explode(tasks):
                raise WorkerError("synthetic failure")

            monkeypatch.setattr(executor._pool, "run", explode)
            want = index.query(
                queries[0], 20.0, 70.0, k=10, l_budget=FULL_BUDGET
            )
            got = executor.search(
                queries[0], 20.0, 70.0, 10, l_budget=FULL_BUDGET
            )
            assert np.array_equal(want.ids, got.ids)
            assert np.array_equal(want.distances, got.distances)

    def test_refresh_picks_up_inserts(self, index, dataset):
        vectors, _, _ = dataset
        with ParallelQueryExecutor(index, num_workers=1) as executor:
            before = executor.version
            index.insert(7_000, vectors[0], 50.0)
            try:
                assert executor.refresh() > before
                got = executor.search(
                    vectors[0], 49.0, 51.0, 5, l_budget=FULL_BUDGET
                )
                assert 7_000 in got.ids.tolist()
            finally:
                index.delete(7_000)


class TestCleanup:
    def test_shm_unlinked_after_close(self, index, dataset):
        _, _, queries = dataset
        executor = ParallelQueryExecutor(index, num_workers=2)
        store_id = executor._store.store_id
        executor.search(queries[0], 20.0, 70.0, 10)
        executor.close()
        executor.close()  # idempotent
        if os.path.isdir("/dev/shm"):
            assert [n for n in os.listdir("/dev/shm") if store_id in n] == []
