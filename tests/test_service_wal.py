"""Tests for WAL durability: append/replay, torn tails, kill-and-recover."""

from __future__ import annotations

import shutil
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import RangePQ
from repro.service import (
    IndexService,
    WALError,
    WriteAheadLog,
    recover_index,
)
from repro.service.wal import _READ_CHUNK, WAL_NAME, _encode, latest_snapshot

BUILD = dict(num_subspaces=4, num_clusters=12, num_codewords=32, seed=0)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((400, 16))
    attrs = rng.random(400) * 100.0
    queries = rng.standard_normal((5, 16))
    return vectors, attrs, queries


def build_index(dataset):
    vectors, attrs, _ = dataset
    return RangePQ.build(vectors, attrs, **BUILD)


class TestWriteAheadLog:
    def test_append_and_read_back(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        vector = np.arange(4, dtype=np.float64)
        assert wal.append_insert(1, 0.5, vector) == 1
        assert wal.append_delete(1) == 2
        wal.close()
        records = WriteAheadLog(tmp_path).records_since(0)
        assert [(r.seq, r.op, r.oid) for r in records] == [
            (1, "insert", 1),
            (2, "delete", 1),
        ]
        np.testing.assert_array_equal(records[0].vector, vector.tolist())
        assert records[0].attr == 0.5

    def test_sequence_survives_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_delete(7)
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.last_seq == 1
        assert reopened.append_delete(8) == 2

    def test_torn_final_line_tolerated(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_delete(1)
        wal.append_delete(2)
        wal.close()
        log = tmp_path / WAL_NAME
        # Simulate a crash mid-append: chop the last line in half.
        content = log.read_text()
        log.write_text(content[: len(content) - 10])
        records = WriteAheadLog(tmp_path).records_since(0)
        assert [r.seq for r in records] == [1]

    def test_mid_log_corruption_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_delete(1)
        wal.append_delete(2)
        wal.close()
        log = tmp_path / WAL_NAME
        lines = log.read_text().splitlines(keepends=True)
        lines[0] = lines[0][:5] + "X" + lines[0][6:]  # corrupt first record
        log.write_text("".join(lines))
        with pytest.raises(WALError, match="untrusted tail"):
            WriteAheadLog(tmp_path).records_since(0)

    def test_snapshot_truncates_log(self, dataset, tmp_path):
        index = build_index(dataset)
        wal = WriteAheadLog(tmp_path)
        rng = np.random.default_rng(0)
        for oid in (9_000, 9_001):
            vec = rng.standard_normal(16)
            index.insert(oid, vec, 5.0)
            wal.append_insert(oid, 5.0, vec)
        wal.write_snapshot(index)
        assert wal.latest_snapshot_seq() == 2
        assert wal.records_since(0) == []  # all folded into the snapshot
        wal.append_delete(9_000)
        assert [r.seq for r in wal.records_since(2)] == [3]


class TestTornTailAppend:
    """Appending after a crash must not corrupt the records that follow.

    Regression tests for the torn-tail append bug: reopening a log whose
    final line was torn (no trailing newline) and appending used to
    concatenate the new record onto the torn fragment, turning a harmless
    torn tail into mid-log corruption that poisoned every record written
    afterwards.
    """

    def test_append_after_torn_tail_preserves_later_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for oid in (1, 2, 3):
            wal.append_delete(oid)
        wal.close()
        log = tmp_path / WAL_NAME
        data = log.read_bytes()
        log.write_bytes(data[:-10])  # crash mid-append of record 3
        reopened = WriteAheadLog(tmp_path)
        assert reopened.last_seq == 2
        assert reopened.append_delete(9) == 3
        reopened.close()
        records = WriteAheadLog(tmp_path).records_since(0)
        assert [(r.seq, r.oid) for r in records] == [(1, 1), (2, 2), (3, 9)]

    def test_append_after_lost_newline_keeps_whole_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_delete(1)
        wal.append_delete(2)
        wal.close()
        log = tmp_path / WAL_NAME
        data = log.read_bytes()
        assert data.endswith(b"\n")
        log.write_bytes(data[:-1])  # the write was cut before its newline
        reopened = WriteAheadLog(tmp_path)
        assert reopened.last_seq == 2  # record 2 survived whole
        assert reopened.append_delete(3) == 3
        reopened.close()
        records = WriteAheadLog(tmp_path).records_since(0)
        assert [r.seq for r in records] == [1, 2, 3]

    def test_repair_leaves_midlog_corruption_for_recovery(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_delete(1)
        wal.append_delete(2)
        wal.close()
        log = tmp_path / WAL_NAME
        lines = log.read_text().splitlines(keepends=True)
        lines[0] = lines[0][:5] + "X" + lines[0][6:]
        log.write_text("".join(lines))
        before = log.read_bytes()
        with pytest.raises(WALError, match="untrusted tail"):
            WriteAheadLog(tmp_path)
        # The opener must not have "repaired" the poisoned prefix away.
        assert log.read_bytes() == before


class TestKillPointProperty:
    """Recovery is exact at EVERY byte-level kill point of the log.

    For a fixed op sequence and every truncation offset of ``wal.log``
    (record boundaries and mid-record cuts alike): the recovered live set
    must equal the longest durable prefix of the op sequence, and
    ``last_seq`` must equal the snapshot seq plus the replayed record
    count.  A writer that then resumes on the truncated directory must
    produce a log whose NEXT recovery also includes its new ops.
    """

    def test_recovery_consistent_at_every_kill_point(self, dataset, tmp_path):
        index = build_index(dataset)
        source = tmp_path / "source"
        service = IndexService(index, wal_dir=source, snapshot_every=None)
        rng = np.random.default_rng(13)
        ops: list[tuple[str, int]] = []
        for i in range(8):
            oid = 50_000 + i
            service.insert(oid, rng.standard_normal(16), rng.random() * 100)
            ops.append(("insert", oid))
        for i in range(4):
            service.delete(50_000 + i)
            ops.append(("delete", 50_000 + i))
        service.close()
        snapshot_seq = WriteAheadLog(source).latest_snapshot_seq()
        assert snapshot_seq == 0  # the initial base snapshot

        def oracle_live(num_durable: int) -> set[int]:
            live = set(range(400))
            for op, oid in ops[:num_durable]:
                live.add(oid) if op == "insert" else live.discard(oid)
            return live

        data = (source / WAL_NAME).read_bytes()
        boundaries = [
            offset + 1
            for offset, byte in enumerate(data)
            if byte == ord("\n")
        ]
        assert len(boundaries) == len(ops)
        kill_points = {0, len(data)}
        for end in boundaries:
            kill_points.add(end)
            kill_points.add(end - 7)  # mid-record cut
        for number, offset in enumerate(sorted(kill_points)):
            copy = tmp_path / f"kill-{number}"
            shutil.copytree(source, copy)
            (copy / WAL_NAME).write_bytes(data[:offset])
            durable = sum(1 for end in boundaries if end <= offset)

            recovered, last_seq = recover_index(copy)
            assert last_seq == snapshot_seq + durable
            assert set(recovered.ivf.ids()) == oracle_live(durable)

            # Writer resumes on the killed directory: the repaired log
            # must absorb new appends without poisoning the old records.
            writer = WriteAheadLog(copy)
            assert writer.last_seq == last_seq
            assert writer.append_delete(399) == last_seq + 1
            writer.close()
            resumed, resumed_seq = recover_index(copy)
            assert resumed_seq == last_seq + 1
            assert set(resumed.ivf.ids()) == oracle_live(durable) - {399}


class TestRecovery:
    def test_recover_empty_dir_raises(self, tmp_path):
        with pytest.raises(WALError, match="no snapshot"):
            recover_index(tmp_path / "nothing")

    def test_kill_and_recover_exact_state(self, dataset, tmp_path):
        """Recovery reproduces the exact pre-crash live state."""
        vectors, attrs, queries = dataset
        index = build_index(dataset)
        service = IndexService(index, wal_dir=tmp_path, snapshot_every=None)
        rng = np.random.default_rng(5)
        for i in range(40):
            service.insert(20_000 + i, rng.standard_normal(16), rng.random() * 100)
        service.delete_many([20_000 + i for i in range(15)])
        service.delete_many(list(index.ivf.ids())[:25])
        expected = [
            index.query(q, 10.0, 90.0, k=10, l_budget=10**6) for q in queries
        ]
        live = set(index.ivf.ids())
        # "Kill": drop the service without closing; the log was flushed per
        # append, so the directory alone must reconstruct the state.
        del service
        recovered, last_seq = recover_index(tmp_path)
        assert last_seq == 40 + 15 + 25  # one WAL record per element

        assert set(recovered.ivf.ids()) == live
        for q, want in zip(queries, expected):
            got = recovered.query(q, 10.0, 90.0, k=10, l_budget=10**6)
            np.testing.assert_array_equal(want.ids, got.ids)
            np.testing.assert_allclose(want.distances, got.distances)
        recovered.check_invariants()

    def test_recover_after_snapshot_plus_tail(self, dataset, tmp_path):
        """Records beyond the newest snapshot replay on top of it."""
        index = build_index(dataset)
        service = IndexService(index, wal_dir=tmp_path)
        rng = np.random.default_rng(6)
        for i in range(10):
            service.insert(30_000 + i, rng.standard_normal(16), 50.0)
        service.snapshot()
        for i in range(5):
            service.delete(30_000 + i)  # tail beyond the snapshot
        live = set(index.ivf.ids())
        del service
        recovered, _ = recover_index(tmp_path)
        assert set(recovered.ivf.ids()) == live
        recovered.check_invariants()

    def test_service_recover_classmethod(self, dataset, tmp_path):
        index = build_index(dataset)
        service = IndexService(index, wal_dir=tmp_path)
        rng = np.random.default_rng(8)
        service.insert(40_000, rng.standard_normal(16), 1.0)
        del service
        revived = IndexService.recover(tmp_path)
        assert 40_000 in revived
        assert len(revived) == 401


class TestSnapshotNaming:
    """Snapshot discovery must sort numerically past the 12-digit padding.

    ``_snapshot_path`` zero-pads the sequence to 12 digits, but a
    long-lived log outgrows that; the old pattern (exactly 12 digits)
    silently ignored wider snapshots, and a lexical sort would rank
    ``snapshot-999999999999`` above ``snapshot-1000000000000``.
    """

    def test_wide_seq_beats_lexically_larger_narrow_seq(self, tmp_path):
        (tmp_path / "snapshot-999999999999.npz").touch()
        (tmp_path / "snapshot-1000000000000.npz").touch()
        (tmp_path / "snapshot-abc.npz").touch()  # never a snapshot
        (tmp_path / "snapshot-123.npz").touch()  # pre-padding junk
        seq, path = latest_snapshot(tmp_path)
        assert seq == 1_000_000_000_000
        assert path.name == "snapshot-1000000000000.npz"

    def test_wal_resumes_sequence_past_wide_snapshot(self, tmp_path):
        (tmp_path / "snapshot-1000000000000.npz").touch()
        wal = WriteAheadLog(tmp_path)
        assert wal.last_seq == 1_000_000_000_000
        assert wal.append_delete(1) == 1_000_000_000_001
        wal.close()


class TestFsyncOnClose:
    """``close()`` must fsync in fsync mode (clean-shutdown durability)."""

    @pytest.fixture
    def fsync_calls(self, monkeypatch):
        import os as os_module

        calls = []
        real = os_module.fsync

        def spy(descriptor):
            calls.append(descriptor)
            return real(descriptor)

        monkeypatch.setattr(os_module, "fsync", spy)
        return calls

    def test_close_fsyncs_when_enabled(self, tmp_path, fsync_calls):
        wal = WriteAheadLog(tmp_path, fsync=True)
        wal.append_delete(1)
        fsync_calls.clear()
        wal.close()
        assert len(fsync_calls) == 1

    def test_close_skips_fsync_when_disabled(self, tmp_path, fsync_calls):
        wal = WriteAheadLog(tmp_path)
        wal.append_delete(1)
        fsync_calls.clear()
        wal.close()
        assert fsync_calls == []

    def test_close_is_idempotent(self, tmp_path, fsync_calls):
        wal = WriteAheadLog(tmp_path, fsync=True)
        wal.append_delete(1)
        wal.close()
        fsync_calls.clear()
        wal.close()  # second close: file already closed, no fsync attempt
        assert fsync_calls == []


class TestWalCursor:
    """Incremental tailing: O(new bytes) polls, truncation-aware resets."""

    def test_poll_reads_only_new_bytes(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for oid in range(50):
            wal.append_delete(oid)
        cursor = wal.cursor()
        assert len(list(cursor.poll())) == 50
        size_before = (tmp_path / WAL_NAME).stat().st_size
        assert cursor.bytes_read == size_before
        wal.append_delete(99)
        size_after = (tmp_path / WAL_NAME).stat().st_size
        read_before = cursor.bytes_read
        assert [record.oid for record in cursor.poll()] == [99]
        # The incrementality contract: the second poll read exactly the
        # appended bytes, not the whole log again.
        assert cursor.bytes_read - read_before == size_after - size_before
        cursor_poll_cost = cursor.bytes_read
        assert list(cursor.poll()) == []  # nothing new: zero bytes read
        assert cursor.bytes_read == cursor_poll_cost

    def test_cursor_after_seq_skips_delivered_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for oid in range(1, 6):
            wal.append_delete(oid)
        cursor = wal.cursor(after_seq=3)
        assert [record.seq for record in cursor.poll()] == [4, 5]
        assert cursor.records_read == 2

    def test_survives_snapshot_truncation_without_dup_or_skip(
        self, dataset, tmp_path
    ):
        index = build_index(dataset)
        wal = WriteAheadLog(tmp_path)
        for oid in range(1, 4):
            wal.append_delete(oid)
        cursor = wal.cursor()
        assert [record.seq for record in cursor.poll()] == [1, 2, 3]
        # Snapshot folds the log: the file is atomically replaced by a
        # (here empty) rewrite — new inode, shorter than the offset.
        wal.write_snapshot(index)
        wal.append_delete(7)
        wal.append_delete(8)
        assert [record.seq for record in cursor.poll()] == [4, 5]

    def test_rescan_skips_records_already_delivered(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for oid in range(1, 6):
            wal.append_delete(oid)
        cursor = wal.cursor()
        assert [record.seq for record in cursor.poll()] == [1, 2, 3, 4, 5]
        # A truncation that *keeps* records the cursor already consumed
        # (the snapshot landed behind the cursor's position): the re-scan
        # must skip them by sequence number, not deliver them again.
        wal._truncate_log(2)
        assert list(cursor.poll()) == []
        wal.append_delete(9)
        assert [record.seq for record in cursor.poll()] == [6]

    def test_inflight_append_left_for_next_poll(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_delete(1)
        cursor = wal.cursor()
        assert [record.seq for record in cursor.poll()] == [1]
        line = _encode({"seq": 2, "op": "delete", "oid": 5}).encode("utf-8")
        log = tmp_path / WAL_NAME
        with open(log, "ab") as handle:
            handle.write(line[:10])  # an append caught mid-write
        assert list(cursor.poll()) == []
        with open(log, "ab") as handle:
            handle.write(line[10:])
        assert [(r.seq, r.oid) for r in cursor.poll()] == [(2, 5)]


class TestStreamingScan:
    """Scans read the log in bounded chunks: memory does not grow with it."""

    RECORDS = 20_000

    @pytest.fixture()
    def long_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        vector = np.linspace(0.0, 1.0, 16)
        for oid in range(self.RECORDS):
            wal.append_insert(oid, oid * 0.5, vector)
        return wal

    def test_truncate_peak_memory_is_bounded(self, long_log, tmp_path):
        size = (tmp_path / WAL_NAME).stat().st_size
        assert size > 8 * 2**20 // 2  # the log dwarfs the bound below
        tracemalloc.start()
        try:
            long_log._truncate_log(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        seqs = [record.seq for record in long_log.cursor().poll()]
        assert seqs == list(range(11, self.RECORDS + 1))

    def test_poll_peak_memory_is_bounded(self, long_log):
        cursor = long_log.cursor()
        tracemalloc.start()
        try:
            delivered = sum(1 for _ in cursor.poll())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert delivered == self.RECORDS
        assert peak < 2 * 2**20

    def test_records_longer_than_a_read_chunk(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        big = np.arange(_READ_CHUNK // 4, dtype=np.float64)
        wal.append_insert(1, 0.5, big)
        wal.append_delete(1)
        wal.append_insert(2, 1.5, big)
        cursor = wal.cursor()
        records = list(cursor.poll())
        assert [(r.seq, r.op) for r in records] == [
            (1, "insert"), (2, "delete"), (3, "insert"),
        ]
        assert records[2].vector == big.tolist()
        assert cursor.bytes_read == (tmp_path / WAL_NAME).stat().st_size
        wal._truncate_log(1)
        assert [r.seq for r in wal.cursor().poll()] == [2, 3]

    def test_failed_truncate_leaves_log_and_no_temp_file(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for oid in range(1, 4):
            wal.append_delete(oid)
        log = tmp_path / WAL_NAME
        lines = log.read_text().splitlines(keepends=True)
        lines[0] = lines[0][:5] + "X" + lines[0][6:]
        log.write_text("".join(lines))
        before = log.read_bytes()
        with pytest.raises(WALError, match="untrusted tail"):
            wal._truncate_log(0)
        assert log.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [WAL_NAME]


class TestWriterVsSnapshotterStress:
    """Concurrent appends and snapshots must never lose or tear a record.

    ``write_snapshot`` rewrites and atomically swaps ``wal.log``; before
    the WAL mutex covered the whole read-rewrite-swap, an append racing
    the swap could land in the doomed old file and vanish.  The
    contiguity check below catches exactly that: a lost append leaves a
    sequence gap in the surviving tail.
    """

    def test_no_records_lost_across_concurrent_snapshots(
        self, dataset, tmp_path
    ):
        index = build_index(dataset)
        wal = WriteAheadLog(tmp_path)
        total = 300
        errors: list[Exception] = []

        def writer() -> None:
            try:
                for oid in range(1, total + 1):
                    wal.append_delete(oid)
                    if oid % 50 == 0:
                        time.sleep(0.001)  # let snapshots interleave
            except Exception as error:  # pragma: no cover - fails the test
                errors.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        snapshots = 0
        while thread.is_alive() and snapshots < 100:
            wal.write_snapshot(index)
            snapshots += 1
        thread.join()
        assert not errors
        assert snapshots > 0
        assert wal.last_seq == total
        snapshot_seq = wal.latest_snapshot_seq()
        tail = wal.records_since(snapshot_seq)
        assert [r.seq for r in tail] == list(range(snapshot_seq + 1, total + 1))
        wal.close()
        # Reopening re-validates the whole surviving log (CRCs, monotonic
        # sequence); corruption from a torn concurrent rewrite would raise.
        reopened = WriteAheadLog(tmp_path)
        assert reopened.last_seq == total
        reopened.close()
