"""Write-ahead log + snapshot durability for the serving layer.

A service directory holds:

* ``snapshot-<seq>.npz`` — full index archives written atomically by
  :func:`repro.io.save_index` (temp file + ``os.replace``), named by the
  WAL sequence number they are consistent with;
* ``wal.log`` — an append-only text log, one record per committed write.

Each record line is ``<json-payload>\\t<crc32-hex>``: the payload carries a
monotonically increasing ``seq``, the op (``insert`` / ``delete``), and the
operands (vectors as float64 lists — JSON round-trips Python floats
exactly).  The CRC detects torn or corrupted lines; a torn *final* line
(crash mid-append) is silently dropped on recovery, while corruption in the
middle of the log raises, because records after it cannot be trusted.

Recovery = load the newest snapshot, then replay every record with a
sequence number beyond it, in order.  Snapshots never block recovery
correctness: records at or below the snapshot's seq are skipped, so a
crash between "snapshot written" and "log truncated" is harmless.

Continuous readers (the replication shipper in :mod:`repro.cluster`)
tail the log through a :class:`WalCursor`: it remembers the byte offset
after the last complete record it consumed, so polling for new records
reads O(new bytes) instead of re-parsing the whole log, and it survives
the snapshot-time truncation rewrite by detecting the file swap and
re-scanning (skipping records it already delivered by sequence number).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from ..obs import counter, histogram, phase

__all__ = [
    "WALError",
    "WalRecord",
    "WalCursor",
    "WriteAheadLog",
    "latest_snapshot",
    "record_from_payload",
    "recover_index",
]

_WAL_APPEND_MS = histogram("wal.append_ms")
_WAL_FSYNC_MS = histogram("wal.fsync_ms")
_WAL_SNAPSHOT_MS = histogram("wal.snapshot_ms")
_WAL_APPENDS = counter("wal.appends")
_WAL_TAIL_REPAIRS = counter("wal.tail_repairs")

WAL_NAME = "wal.log"
# ``_snapshot_path`` zero-pads to 12 digits but seq keeps growing past
# that, so the pattern must accept 12-or-more digits; sorting is numeric
# (int seq), never lexical, so the padding is cosmetic only.
_SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{12,})\.npz$")
#: Bytes per read when scanning the log; bounds a scan's memory.
_READ_CHUNK = 1 << 16


class WALError(RuntimeError):
    """Raised on unusable WAL directories or mid-log corruption."""


class WalRecord:
    """One decoded WAL record."""

    __slots__ = ("seq", "op", "oid", "attr", "vector")

    def __init__(self, seq, op, oid, attr=None, vector=None) -> None:
        self.seq = seq
        self.op = op
        self.oid = oid
        self.attr = attr
        self.vector = vector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalRecord(seq={self.seq}, op={self.op!r}, oid={self.oid})"

    def payload(self) -> dict:
        """The JSON-serializable form of this record (log and wire).

        Round-trips exactly through :func:`record_from_payload`; the
        replication stream ships records in this shape.
        """
        payload: dict = {"seq": self.seq, "op": self.op, "oid": self.oid}
        if self.op == "insert":
            payload["attr"] = self.attr
            payload["vec"] = self.vector
        return payload


def _encode(payload: dict) -> str:
    body = json.dumps(payload, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{body}\t{crc:08x}\n"


def _decode_bytes(line: bytes) -> dict | None:
    """Parse one raw log line; None on undecodable bytes or a bad CRC."""
    try:
        return _decode(line.decode("utf-8"))
    except UnicodeDecodeError:
        return None


def _decode(line: str) -> dict | None:
    """Parse one log line; returns None when the line fails its CRC."""
    line = line.rstrip("\n")
    body, sep, crc_text = line.rpartition("\t")
    if not sep:
        return None
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        return json.loads(body)
    except json.JSONDecodeError:
        return None


def _snapshot_path(directory: Path, seq: int) -> Path:
    return directory / f"snapshot-{seq:012d}.npz"


def _list_snapshots(directory: Path) -> list[tuple[int, Path]]:
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _SNAPSHOT_PATTERN.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    found.sort()
    return found


def latest_snapshot(directory: str | Path) -> tuple[int, Path] | None:
    """The newest ``(seq, path)`` snapshot in a durability directory.

    Replicas use this to pick their catch-up base without owning a
    :class:`WriteAheadLog`.  Returns ``None`` when the directory holds no
    snapshot.  Ordering is numeric on the sequence number, so snapshots
    whose seq outgrew the 12-digit zero padding sort correctly.
    """
    snapshots = _list_snapshots(Path(directory))
    return snapshots[-1] if snapshots else None


def record_from_payload(payload: dict, path: str | Path = "<payload>") -> WalRecord:
    """Build one :class:`WalRecord` from a decoded payload, validating it.

    Inverse of :meth:`WalRecord.payload`; ``path`` names the source (a
    log file or a replication peer) in error messages.

    Raises:
        WALError: On a malformed payload or an unknown op.
    """
    try:
        record = WalRecord(
            seq=int(payload["seq"]),
            op=str(payload["op"]),
            oid=int(payload["oid"]),
            attr=payload.get("attr"),
            vector=payload.get("vec"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise WALError(f"{path}: malformed record: {error}") from error
    if record.op not in ("insert", "delete"):
        raise WALError(f"{path}: unknown op {record.op!r}")
    return record


class WalCursor:
    """Incremental, truncation-aware reader over one WAL file.

    The cursor remembers the byte offset just past the last complete
    record it consumed, so each :meth:`poll` reads only the bytes
    appended since the previous one — O(new bytes), not O(whole log).
    That is the property that makes continuous tailing (the replication
    shipper polling every few milliseconds) affordable; the naive
    re-parse makes total shipping work quadratic in the log length.

    Truncation safety: the snapshot path atomically rewrites ``wal.log``
    keeping only records beyond the snapshot (a new inode, usually
    shorter).  The cursor detects the swap (inode change or a file
    shorter than its offset) and resets to offset 0, re-scanning the
    now-small log and skipping records at or below the last sequence
    number it already delivered — records are never duplicated and never
    skipped.

    Tail tolerance matches :func:`recover_index`: an incomplete final
    line (no newline yet — an append in flight or a torn crash tail) is
    left unconsumed for the next poll; a complete line that fails its
    CRC is tolerated only while nothing valid follows it, and raises
    :class:`WALError` as soon as later records prove the log corrupt in
    the middle.

    Attributes:
        path: The log file being tailed.
        bytes_read: Total bytes read off disk so far (tests pin the
            incrementality contract on this).
        records_read: Total records delivered so far.
    """

    def __init__(self, path: str | Path, *, after_seq: int = 0) -> None:
        self.path = Path(path)
        self.bytes_read = 0
        self.records_read = 0
        self._offset = 0
        self._inode: int | None = None
        self._last_seq = int(after_seq)

    @property
    def last_seq(self) -> int:
        """Sequence number of the last record delivered (or the floor)."""
        return self._last_seq

    def poll(self) -> Iterator[WalRecord]:
        """Yield records appended (or still undelivered) since last poll.

        Raises:
            WALError: On mid-log corruption, a malformed record, or a
                non-monotonic sequence number.
        """
        for _, record in self._scan():
            yield record

    def _scan(self) -> Iterator[tuple[bytes, WalRecord]]:
        """Yield ``(raw line, record)`` for each undelivered record.

        Streams the file in :data:`_READ_CHUNK` pieces carrying the partial
        last line over, and decodes one line at a time, so memory stays
        bounded by one chunk plus one record whatever the log length.  A
        line that fails to decode is held back as a possible torn tail; a
        valid line after it proves mid-log corruption and raises.
        """
        try:
            handle = open(self.path, "rb")  # noqa: SIM115 - closed below
        except FileNotFoundError:
            return
        with handle:
            stat = os.fstat(handle.fileno())
            if self._inode is not None and (
                stat.st_ino != self._inode or stat.st_size < self._offset
            ):
                # Truncation rewrite: new file, re-scan from the top.
                self._offset = 0
            self._inode = stat.st_ino
            handle.seek(self._offset)
            position = self._offset  # byte offset of the next line
            torn_at: int | None = None
            previous_seq: int | None = None
            partial = b""
            while chunk := handle.read(_READ_CHUNK):
                self.bytes_read += len(chunk)
                lines = (partial + chunk).split(b"\n")
                partial = lines.pop()  # no newline yet: left for later
                for line in lines:
                    start = position
                    position += len(line) + 1
                    payload = _decode_bytes(line)
                    if payload is None:
                        if torn_at is None:
                            torn_at = start
                        continue
                    if torn_at is not None:
                        raise WALError(
                            f"{self.path}: corrupt record at byte offset "
                            f"{torn_at} is followed by valid records; "
                            "refusing an untrusted tail"
                        )
                    record = record_from_payload(payload, self.path)
                    if previous_seq is not None and record.seq <= previous_seq:
                        raise WALError(
                            f"{self.path}: non-monotonic sequence {record.seq} "
                            f"after {previous_seq}"
                        )
                    previous_seq = record.seq
                    self._offset = position
                    if record.seq <= self._last_seq:
                        continue  # already delivered before a truncation re-scan
                    self._last_seq = record.seq
                    self.records_read += 1
                    yield line + b"\n", record


class WriteAheadLog:
    """Append-only durable log of index mutations, plus snapshot management.

    Args:
        directory: The service's durability directory (created if absent).
        fsync: Fsync after every append.  Off by default: a flushed-but-not
            -fsynced log survives process crashes (the benchmark and test
            mode), fsync additionally survives power loss.
        keep_snapshots: How many most-recent snapshots to retain when a new
            one is written.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: bool = False,
        keep_snapshots: int = 2,
    ) -> None:
        if keep_snapshots < 1:
            raise ValueError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.keep_snapshots = keep_snapshots
        # Guards the append plane against the snapshot plane: appends,
        # the truncation rewrite (which swaps self._file), and close all
        # serialize here, so a maintenance-thread snapshot can never
        # close the file out from under a concurrent writer.
        self._mutex = threading.Lock()
        self._repair_tail()
        self._last_seq = self._scan_last_seq()
        self._file = open(  # noqa: SIM115 - lifetime == WAL lifetime
            self.directory / WAL_NAME, "a", encoding="utf-8"
        )

    def _repair_tail(self) -> None:
        """Trim (or complete) a torn final line before appending resumes.

        A crash mid-append leaves the log ending in a partial line with no
        newline.  Recovery tolerates that — but *appending* to such a file
        would concatenate the next record onto the torn fragment, turning
        a harmless torn tail into mid-log corruption that poisons every
        record written afterwards.  So on open: a partial tail that still
        decodes (the write was cut exactly before its newline) gets its
        newline back; trailing lines that fail their CRC are truncated
        away.  Only the torn tail is touched — corruption *followed by*
        valid records is left in place for recovery to reject.
        """
        path = self.directory / WAL_NAME
        if not path.exists():
            return
        with open(path, "rb") as handle:
            data = handle.read()
        if not data:
            return
        complete = data.endswith(b"\n")
        lines = data.split(b"\n")
        if complete:
            lines.pop()  # split artifact after the final newline
        if not complete and lines and _decode_bytes(lines[-1]) is not None:
            # The record survived whole; only its newline was lost.
            with open(path, "ab") as handle:
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
            _WAL_TAIL_REPAIRS.inc()
            return
        kept = len(lines)
        if not complete:
            kept -= 1  # a non-decoding partial tail never survives
        while kept > 0 and _decode_bytes(lines[kept - 1]) is None:
            kept -= 1
        if complete and kept == len(lines):
            return  # nothing torn
        size = sum(len(line) + 1 for line in lines[:kept])
        with open(path, "rb+") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())
        _WAL_TAIL_REPAIRS.inc()

    # ------------------------------------------------------------------
    # Sequence / discovery
    # ------------------------------------------------------------------
    def _scan_last_seq(self) -> int:
        last = 0
        snapshots = _list_snapshots(self.directory)
        if snapshots:
            last = snapshots[-1][0]
        for record in _read_records(self.directory / WAL_NAME):
            last = max(last, record.seq)
        return last

    @property
    def last_seq(self) -> int:
        """Highest sequence number made durable so far (0 if none).

        Lock-free monitoring read: int loads are atomic under the GIL
        and a slightly stale value is fine for observers.
        """
        return self._last_seq  # repro: noqa-C002

    def latest_snapshot_seq(self) -> int | None:
        """Sequence number of the newest snapshot, or None."""
        snapshots = _list_snapshots(self.directory)
        return snapshots[-1][0] if snapshots else None

    def cursor(self, *, after_seq: int = 0) -> WalCursor:
        """A fresh :class:`WalCursor` over this log.

        The cursor delivers every durable record with sequence number
        beyond ``after_seq``; keep it and re-poll to tail new appends
        incrementally (O(new bytes) per poll).
        """
        return WalCursor(self.directory / WAL_NAME, after_seq=after_seq)

    def records_since(self, seq: int) -> list[WalRecord]:
        """All durable records with sequence number > ``seq``, in order.

        One-shot convenience over :meth:`cursor`; a caller polling
        repeatedly should hold its own cursor instead, which reads only
        the appended bytes on each poll.
        """
        return list(self.cursor(after_seq=seq).poll())

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append_insert(
        self, oid: int, attr: float, vector: np.ndarray
    ) -> int:
        """Append one insert record; returns its sequence number."""
        return self._append(
            "insert",
            oid=int(oid),
            attr=float(attr),
            vec=np.asarray(vector, dtype=np.float64).tolist(),
        )

    def append_delete(self, oid: int) -> int:
        """Append one delete record; returns its sequence number."""
        return self._append("delete", oid=int(oid))

    def _append(self, op: str, **fields) -> int:
        with phase("wal_append", metric=_WAL_APPEND_MS):
            with self._mutex:
                # Sequence assignment happens under the mutex so appends
                # racing a truncation (or each other) stay gapless.
                payload = {"seq": self._last_seq + 1, "op": op, **fields}
                self._file.write(_encode(payload))
                self._file.flush()
                if self.fsync:
                    with phase("wal_fsync", metric=_WAL_FSYNC_MS):
                        os.fsync(self._file.fileno())
                self._last_seq = payload["seq"]
        _WAL_APPENDS.inc()
        return payload["seq"]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def write_snapshot(self, index) -> Path:
        """Persist ``index`` as the snapshot consistent with ``last_seq``.

        The caller must guarantee the index state actually reflects every
        appended record (the service does so by pausing writers).  After
        the snapshot lands, the log is truncated to the records beyond it
        and snapshots older than ``keep_snapshots`` are pruned.
        """
        from ..io.serialization import save_index

        with phase("wal_snapshot", metric=_WAL_SNAPSHOT_MS):
            with self._mutex:
                snapshot_seq = self._last_seq
            path = _snapshot_path(self.directory, snapshot_seq)
            save_index(index, path)
            self._truncate_log(snapshot_seq)
            self._prune_snapshots()
        return path

    def _truncate_log(self, seq: int) -> None:
        """Atomically rewrite the log keeping only records beyond ``seq``.

        Holds the WAL mutex for the whole read-rewrite-swap: a record
        appended mid-rewrite would land in the *old* file and be lost by
        the ``os.replace`` otherwise.  Streams: the kept records' raw lines
        are copied as they are scanned, so memory does not grow with the
        log.
        """
        with self._mutex:
            descriptor, temp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".wal.", suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    for line, _ in self.cursor(after_seq=seq)._scan():
                        handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
            except (OSError, WALError):
                os.unlink(temp_name)
                raise
            self._file.close()
            os.replace(temp_name, self.directory / WAL_NAME)
            self._file = open(  # noqa: SIM115 - lifetime == WAL lifetime
                self.directory / WAL_NAME, "a", encoding="utf-8"
            )

    def _prune_snapshots(self) -> None:
        snapshots = _list_snapshots(self.directory)
        for _, path in snapshots[: -self.keep_snapshots]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def close(self) -> None:
        """Flush (and, in fsync mode, fsync) then close the log file.

        An fsync-mode log must fsync on clean shutdown too: the final
        appends would otherwise sit in the page cache only, so a power
        loss after a *clean* close could still lose the tail — exactly
        the failure mode ``fsync=True`` promises to exclude.
        """
        with self._mutex:
            if not self._file.closed:
                self._file.flush()
                if self.fsync:
                    os.fsync(self._file.fileno())
                self._file.close()


def _read_records(path: Path) -> Iterator[WalRecord]:
    """Decode a whole log file, tolerating only a torn final line.

    One-shot wrapper over :class:`WalCursor` (which carries the
    validation rules: CRC, op, monotonic sequence, untrusted-tail
    rejection).
    """
    yield from WalCursor(path).poll()


def recover_index(directory: str | Path):
    """Rebuild an index from its durability directory.

    Loads the newest snapshot and replays every WAL record beyond its
    sequence number, reproducing the exact pre-crash live state (same
    objects, attributes, and coarse-cluster assignments — cluster
    assignment is deterministic given the trained quantizers in the
    snapshot).

    Returns:
        ``(index, last_seq)`` — the recovered index and the sequence
        number of the last applied record.

    Raises:
        WALError: If the directory holds no snapshot or the log is
            corrupt beyond its final line.
    """
    from ..io.serialization import load_index

    directory = Path(directory)
    newest = latest_snapshot(directory)
    if newest is None:
        raise WALError(f"{directory}: no snapshot to recover from")
    snapshot_seq, snapshot_file = newest
    index = load_index(snapshot_file)
    last_seq = snapshot_seq
    for record in WalCursor(directory / WAL_NAME, after_seq=snapshot_seq).poll():
        if record.op == "insert":
            index.insert(
                record.oid,
                np.asarray(record.vector, dtype=np.float64),
                record.attr,
            )
        else:
            index.delete(record.oid)
        last_seq = record.seq
    return index, last_seq
