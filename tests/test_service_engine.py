"""Tests for the serving engine: RWLock, shared-side reads, admission,
deferred maintenance, and the global-lock baseline."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import RangePQ, RangePQPlus
from repro.core.results import QueryResult
from repro.service import (
    AdmissionController,
    AdmissionError,
    GlobalLockService,
    IndexService,
    MaintenanceDaemon,
    RWLock,
)

BUILD = dict(num_subspaces=4, num_clusters=12, num_codewords=32, seed=0)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((500, 16))
    attrs = rng.random(500) * 100.0
    queries = rng.standard_normal((8, 16))
    return vectors, attrs, queries


@pytest.fixture()
def index(dataset):
    vectors, attrs, _ = dataset
    return RangePQ.build(vectors, attrs, **BUILD)


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def read():
            with lock.read_locked():
                inside.wait()  # only passes if all 3 readers are inside

        threads = [threading.Thread(target=read) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        writer_in = threading.Event()

        def write():
            with lock.write_locked():
                writer_in.set()
                time.sleep(0.05)
                order.append("write")

        def read():
            writer_in.wait(timeout=5)
            with lock.read_locked():
                order.append("read")

        threads = [
            threading.Thread(target=write),
            threading.Thread(target=read),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert order == ["write", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()

        def write():
            writer_started.set()
            with lock.write_locked():
                writer_done.set()

        w = threading.Thread(target=write)
        w.start()
        writer_started.wait(timeout=5)
        time.sleep(0.02)  # let the writer register as waiting
        reader_got_in = threading.Event()

        def read():
            with lock.read_locked():
                reader_got_in.set()

        r = threading.Thread(target=read)
        r.start()
        time.sleep(0.05)
        # Writer preference: the new reader must NOT slip past the waiting
        # writer while the first reader still holds the lock.
        assert not reader_got_in.is_set()
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert writer_done.is_set() and reader_got_in.is_set()


class TestIndexServiceReads:
    def test_single_query_matches_direct(self, dataset, index):
        _, _, queries = dataset
        service = IndexService(index)
        for q in queries:
            direct = index.query(q, 20.0, 80.0, k=10, l_budget=10**6)
            served = service.query(q, 20.0, 80.0, k=10, l_budget=10**6)
            np.testing.assert_array_equal(direct.ids, served.ids)
            np.testing.assert_allclose(direct.distances, served.distances)

    def test_concurrent_queries_match_direct(self, dataset, index):
        """Overlapping reads stay bitwise identical to sequential queries."""
        _, _, queries = dataset
        expected = [
            index.query(q, 10.0, 90.0, k=10, l_budget=10**6) for q in queries
        ]
        service = IndexService(index)
        results: list[QueryResult | None] = [None] * len(queries)
        barrier = threading.Barrier(len(queries), timeout=5)

        def run(i):
            barrier.wait()
            results[i] = service.query(
                queries[i], 10.0, 90.0, k=10, l_budget=10**6
            )

        threads = [
            threading.Thread(target=run, args=(i,))
            for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        for want, got in zip(expected, results):
            assert got is not None
            np.testing.assert_array_equal(want.ids, got.ids)
            np.testing.assert_allclose(want.distances, got.distances)
        assert service.stats.reads == len(queries)

    def test_query_batch(self, dataset, index):
        _, _, queries = dataset
        service = IndexService(index)
        ranges = [(10.0, 90.0)] * len(queries)
        batch = service.query_batch(queries, ranges, k=5, l_budget=10**6)
        for q, got in zip(queries, batch.results):
            want = index.query(q, 10.0, 90.0, k=5, l_budget=10**6)
            np.testing.assert_array_equal(want.ids, got.ids)

    def test_rejects_bad_k(self, index):
        service = IndexService(index)
        with pytest.raises(ValueError, match="k must be"):
            service.query(np.zeros(16), 0.0, 1.0, k=0)

    def test_read_error_propagates(self, index):
        service = IndexService(index)
        with pytest.raises(ValueError):
            # Wrong dimensionality surfaces to the caller.
            service.query(np.zeros(3), 0.0, 1.0, k=5)
        # The service keeps working afterwards.
        service.query(np.zeros(16), 0.0, 100.0, k=5)


class TestIndexServiceWrites:
    def test_writes_bump_version(self, index):
        rng = np.random.default_rng(0)
        service = IndexService(index)
        assert service.version == 0
        service.insert(9_001, rng.standard_normal(16), 50.0)
        assert service.version == 1
        assert 9_001 in service
        service.delete(9_001)
        assert service.version == 2
        assert 9_001 not in service
        assert service.stats.writes == 2

    def test_insert_many_delete_many(self, index):
        rng = np.random.default_rng(1)
        service = IndexService(index)
        ids = [9_100, 9_101, 9_102]
        service.insert_many(ids, rng.standard_normal((3, 16)), [1.0, 2.0, 3.0])
        assert all(oid in service for oid in ids)
        service.delete_many(ids)
        assert not any(oid in service for oid in ids)
        assert service.version == 2  # each batch is one committed step

    def test_insert_many_repeated_id_commits_and_logs_nothing(
        self, index, tmp_path
    ):
        rng = np.random.default_rng(2)
        service = IndexService(index, wal_dir=tmp_path)
        size = len(service)
        with pytest.raises(ValueError, match="object 9200 repeated"):
            service.insert_many(
                [9_200, 9_200], rng.standard_normal((2, 16)), [1.0, 2.0]
            )
        assert (service.version, len(service)) == (0, size)
        assert 9_200 not in service
        assert service.wal.records_since(0) == []
        service.check_invariants()
        service.close()


class TestDeferredMaintenance:
    def test_deletes_defer_rebuild_until_maintenance(self, dataset):
        vectors, attrs, queries = dataset
        index = RangePQ.build(vectors, attrs, **BUILD)
        service = IndexService(index, defer_maintenance=True)
        assert index.auto_rebuild is False
        # Delete well past the 2·invalid > size threshold.
        victims = list(index.ivf.ids())[:300]
        before_rebuilds = index.tree.rebuild_count
        service.delete_many(victims)
        assert index.tree.rebuild_count == before_rebuilds  # deferred
        assert index.tree.invalid_count > 0
        assert service.maintenance_due()
        # Reads stay correct against the un-compacted tree.
        live = set(index.ivf.ids())
        result = service.query(queries[0], 0.0, 100.0, k=10, l_budget=10**6)
        assert set(result.ids.tolist()) <= live
        report = service.run_maintenance(audit=True)
        assert report["rebuilt"] and report["audited"]
        assert index.tree.rebuild_count == before_rebuilds + 1
        assert index.tree.invalid_count == 0
        assert not service.maintenance_due()

    def test_rangepq_plus_deferral(self, dataset):
        vectors, attrs, _ = dataset
        index = RangePQPlus.build(vectors, attrs, **BUILD)
        service = IndexService(index, defer_maintenance=True)
        victims = list(index.ivf.ids())[:300]
        service.delete_many(victims)
        assert service.maintenance_due()
        assert service.run_maintenance(audit=True)["rebuilt"]
        assert not service.maintenance_due()

    def test_daemon_pays_debt(self, dataset):
        vectors, attrs, _ = dataset
        index = RangePQ.build(vectors, attrs, **BUILD)
        service = IndexService(index, defer_maintenance=True)
        victims = list(index.ivf.ids())[:300]
        with MaintenanceDaemon(service, interval_s=0.01) as daemon:
            service.delete_many(victims)
            deadline = time.monotonic() + 5.0
            while service.maintenance_due() and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not service.maintenance_due()
        assert daemon.stats.rebuilds >= 1
        assert daemon.last_error is None
        service.check_invariants()


class _SlowIndex:
    """Stub index whose query blocks until released (admission tests)."""

    def __init__(self, dim=4):
        self.release = threading.Event()
        self.entered = threading.Event()

    def query(self, vector, lo, hi, k, *, l_budget=None):
        self.entered.set()
        self.release.wait(timeout=10)
        return QueryResult.empty()

    def query_batch(self, queries, ranges, k, *, l_budget=None):
        results = [
            self.query(q, lo, hi, k, l_budget=l_budget)
            for q, (lo, hi) in zip(queries, ranges)
        ]
        return results


class TestAdmission:
    def test_queue_full_rejection(self):
        controller = AdmissionController(
            max_concurrent=1, max_queue=0, timeout_s=5.0
        )
        with controller.admit("read"):
            with pytest.raises(AdmissionError) as excinfo:
                controller.admit("read")
            assert excinfo.value.reason == "queue-full"
        assert controller.stats.rejected_queue_full == 1
        # Slot released: admission works again.
        with controller.admit("read"):
            pass
        assert controller.stats.admitted == 2

    def test_timeout_rejection(self):
        controller = AdmissionController(
            max_concurrent=1, max_queue=4, timeout_s=0.05
        )
        with controller.admit("write"):
            began = time.monotonic()
            with pytest.raises(AdmissionError) as excinfo:
                controller.admit("write")
            assert excinfo.value.reason == "timeout"
            assert time.monotonic() - began >= 0.04
        assert controller.stats.rejected_timeout == 1

    def test_try_admit_never_blocks_or_counts_rejections(self):
        controller = AdmissionController(max_concurrent=1, max_queue=0)
        slot = controller.try_admit("read")
        assert slot is not None
        assert controller.try_admit("read") is None
        assert controller.stats.rejected == 0
        with slot:
            pass
        with controller.try_admit("read"):
            pass
        assert controller.stats.admitted == 2

    def test_try_admit_yields_to_blocked_waiters(self):
        """A polling caller must not barge ahead of threads already
        blocked in admit() on a shared controller (priority inversion
        would starve the thread plane under sustained polling)."""
        controller = AdmissionController(
            max_concurrent=1, max_queue=4, timeout_s=5.0
        )
        first = controller.try_admit("read")
        assert first is not None
        admitted = []

        def waiter():
            with controller.admit("read"):
                admitted.append(True)

        t = threading.Thread(target=waiter)
        t.start()
        deadline = time.monotonic() + 5.0
        while controller.waiting == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert controller.waiting == 1
        assert controller.try_admit("read") is None
        first.__exit__(None, None, None)
        t.join(timeout=5)
        assert admitted == [True]

    def test_service_sheds_on_saturation(self):
        stub = _SlowIndex()
        controller = AdmissionController(
            max_concurrent=1, max_queue=0, timeout_s=5.0
        )
        service = GlobalLockService(stub, admission=controller)
        done = []

        def blocked_read():
            done.append(service.query(np.zeros(4), 0.0, 1.0, k=1))

        t = threading.Thread(target=blocked_read)
        t.start()
        assert stub.entered.wait(timeout=5)
        with pytest.raises(AdmissionError) as excinfo:
            service.query(np.zeros(4), 0.0, 1.0, k=1)
        assert excinfo.value.reason == "queue-full"
        stub.release.set()
        t.join(timeout=5)
        assert len(done) == 1


class TestGlobalLockBaseline:
    def test_matches_direct_queries(self, dataset, index):
        _, _, queries = dataset
        service = GlobalLockService(index)
        for q in queries:
            want = index.query(q, 20.0, 80.0, k=10, l_budget=10**6)
            got, version = service.query_versioned(
                q, 20.0, 80.0, k=10, l_budget=10**6
            )
            np.testing.assert_array_equal(want.ids, got.ids)
            assert version == 0

    def test_write_read_cycle(self, index):
        rng = np.random.default_rng(3)
        service = GlobalLockService(index)
        service.insert(9_500, rng.standard_normal(16), 42.0)
        assert 9_500 in service
        assert service.version == 1
        service.delete(9_500)
        assert service.version == 2
        service.check_invariants()
