"""The serving engine: snapshot-isolated reads over a serialized write plane.

:class:`IndexService` turns one RangePQ / RangePQ+ index into a concurrent
server with three planes:

* **Read plane** — queries run under the shared side of a writer-preferring
  reader-writer lock, so every read observes a *snapshot*: the index state
  of some committed write version, never a half-applied mutation.
  Concurrent reads share the read side; each one is exactly
  ``index.query`` at the version it captured under the lock.
* **Write plane** — inserts and deletes serialize on the exclusive side of
  the lock; each committed call bumps the service version and (when a WAL
  is attached) appends durable records *after* the in-memory apply
  succeeds, so the log never contains an op the index rejected.
* **Maintenance plane** — with ``defer_maintenance`` (default) the paper's
  lazy-deletion rebuild trigger is taken off the client's delete path: the
  index's ``auto_rebuild`` is disabled and a
  :class:`~repro.service.maintenance.MaintenanceDaemon` (or an explicit
  :meth:`run_maintenance` call) compacts, invalidates the IVF ADC-table
  caches, and snapshots in the background.

:class:`GlobalLockService` is the deliberately naive baseline — one mutex
around everything, maintenance inline — that the throughput benchmark
(``benchmarks/bench_service_throughput.py``) compares against.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.batch import BatchResult, execute_batch
from ..core.results import QueryResult
from ..obs import gauge, histogram, phase
from .admission import AdmissionController
from .wal import WriteAheadLog, recover_index

__all__ = [
    "RWLock",
    "ServiceStats",
    "IndexService",
    "GlobalLockService",
]

_READ_MS = histogram("service.read_latency_ms")
_WRITE_MS = histogram("service.write_latency_ms")
_REBUILD_MS = histogram("service.rebuild_ms")
_TABLE_HIT_RATE = gauge("cache.table.hit_rate")
_CENTER_HIT_RATE = gauge("cache.center.hit_rate")


class RWLock:
    """A writer-preferring reader-writer lock.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Arriving writers block *new* readers (writer preference), so a
    continuous read load cannot starve the write plane.  Not reentrant.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._readers_ok = threading.Condition(self._mutex)
        self._writers_ok = threading.Condition(self._mutex)
        self._active_readers = 0
        self._waiting_writers = 0
        self._writer_active = False

    def acquire_read(self) -> None:
        """Block until the shared side is available."""
        with self._mutex:
            while self._writer_active or self._waiting_writers:
                self._readers_ok.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        """Drop the shared side; wake a waiting writer when last out."""
        with self._mutex:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._writers_ok.notify()

    def acquire_write(self) -> None:
        """Block until the exclusive side is available."""
        with self._mutex:
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers:
                    self._writers_ok.wait()
            finally:
                self._waiting_writers -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Drop the exclusive side; writers drain before readers re-enter."""
        with self._mutex:
            self._writer_active = False
            if self._waiting_writers:
                self._writers_ok.notify()
            else:
                self._readers_ok.notify_all()

    def read_locked(self):
        """Context manager holding the shared side."""
        return _LockContext(self.acquire_read, self.release_read)

    def write_locked(self):
        """Context manager holding the exclusive side."""
        return _LockContext(self.acquire_write, self.release_write)


class _LockContext:
    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self):
        self._acquire()
        return self

    def __exit__(self, *exc_info):
        self._release()
        return False


@dataclass
class ServiceStats:
    """Monotonic counters describing one service's lifetime traffic.

    Attributes:
        reads: Read requests answered (one per query, batched or not).
        read_batches: Read-lock acquisitions that answered queries (one
            per ``query``, one per ``query_batch``).
        writes: Committed write calls (each bumped the version once).
        maintenance_runs: Background/explicit maintenance cycles that did
            work (rebuild and/or snapshot).
        rebuilds: Index compactions run by the maintenance plane.
        snapshots: WAL snapshots written.
        audits: ``check_invariants`` audits run by the maintenance plane.
    """

    reads: int = 0
    read_batches: int = 0
    writes: int = 0
    maintenance_runs: int = 0
    rebuilds: int = 0
    snapshots: int = 0
    audits: int = 0
    _mutex: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, **deltas: int) -> None:
        """Atomically add the given deltas to the named counters."""
        with self._mutex:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)


class IndexService:
    """Concurrent serving wrapper around one range-filtered index.

    Args:
        index: A populated RangePQ / RangePQ+ (any object with the common
            ``insert/delete/query`` interface works for serving; WAL
            snapshots additionally require :func:`repro.io.save_index`
            support, and deferred maintenance requires the index to expose
            ``auto_rebuild`` / ``maintenance_due`` / ``run_maintenance``).
        wal_dir: Directory for durability (write-ahead log + snapshots).
            When given, an initial snapshot is written if the directory has
            none, so recovery always has a base state.
        fsync: Fsync the WAL after every append (durable against power
            loss, not just process crash).
        admission: Optional :class:`AdmissionController` bounding in-flight
            requests; rejected requests raise
            :class:`~repro.service.admission.AdmissionError` instead of
            queueing unboundedly.
        defer_maintenance: Take the rebuild trigger off the delete path
            (see module docstring).  Requires a maintenance daemon or
            periodic :meth:`run_maintenance` calls to pay the debt.
        snapshot_every: Write a WAL snapshot after this many committed
            writes (checked by the maintenance plane); ``None`` disables
            periodic snapshots.
        read_only: Replica apply mode — the public write plane
            (``insert``/``delete`` and friends) raises, and state only
            advances through :meth:`apply_records`, fed by a replication
            stream of another service's WAL records.  Reads keep the
            full snapshot-isolation contract.  Incompatible with
            ``wal_dir``: a replica replays someone else's log rather
            than owning one.
    """

    def __init__(
        self,
        index,
        *,
        wal_dir: str | Path | None = None,
        fsync: bool = False,
        admission: AdmissionController | None = None,
        defer_maintenance: bool = True,
        snapshot_every: int | None = None,
        read_only: bool = False,
    ) -> None:
        if read_only and wal_dir is not None:
            raise ValueError(
                "a read-only (replica) service cannot own a WAL; it "
                "applies shipped records from the primary's log instead"
            )
        self._read_only = bool(read_only)
        self._index = index
        self._lock = RWLock()
        self._version = 0
        self._admission = admission
        self._snapshot_every = snapshot_every
        self._writes_since_snapshot = 0
        self._maintenance_wakeup: threading.Event | None = None
        self._closed = False
        self.stats = ServiceStats()
        if defer_maintenance and hasattr(index, "auto_rebuild"):
            index.auto_rebuild = False
        self._wal: WriteAheadLog | None = None
        if wal_dir is not None:
            self._wal = WriteAheadLog(wal_dir, fsync=fsync)
            if self._wal.latest_snapshot_seq() is None:
                self._wal.write_snapshot(index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def index(self):
        """The wrapped index (do not mutate outside the service).

        Lock-free read of the reference: the binding never changes after
        construction; only the object's *contents* are lock-guarded.
        """
        return self._index  # repro: noqa-C002

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, if any."""
        return self._wal

    @property
    def read_only(self) -> bool:
        """Whether this service is in replica apply mode."""
        return self._read_only

    @property
    def version(self) -> int:
        """Number of committed writes (the snapshot version readers see).

        Lock-free monitoring read: int loads are atomic under the GIL and
        a slightly stale version is fine for observers.
        """
        return self._version  # repro: noqa-C002

    def __len__(self) -> int:
        with self._lock.read_locked():
            return len(self._index)

    def __contains__(self, oid: int) -> bool:
        with self._lock.read_locked():
            return oid in self._index

    def memory_bytes(self) -> int:
        """C-equivalent bytes of the wrapped index."""
        with self._lock.read_locked():
            return self._index.memory_bytes()

    def check_invariants(self) -> None:
        """Audit the wrapped index under the read lock (snapshot-safe)."""
        with self._lock.read_locked():
            self._index.check_invariants()

    # ------------------------------------------------------------------
    # Read plane
    # ------------------------------------------------------------------
    def query(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> QueryResult:
        """Range-filtered top-``k`` query against a consistent snapshot."""
        return self.query_versioned(
            query_vector, lo, hi, k, l_budget=l_budget
        )[0]

    def query_versioned(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> tuple[QueryResult, int]:
        """Like :meth:`query`, also returning the snapshot version read.

        The result is exactly what ``index.query`` would return at that
        version — the consistency contract the stress tests verify against
        a serial oracle.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        vector = np.asarray(query_vector, dtype=np.float64)
        budget = {} if l_budget is None else {"l_budget": l_budget}
        with phase("service_read", metric=_READ_MS):
            with self._admit("read"), self._lock.read_locked():
                version = self._version
                result = self._index.query(vector, lo, hi, k, **budget)
        self.stats.bump(reads=1, read_batches=1)
        return result, version

    def query_batch(
        self,
        queries: np.ndarray,
        ranges: Sequence[tuple[float, float]],
        k: int,
        *,
        l_budget: int | None = None,
    ) -> BatchResult:
        """Answer a caller-assembled batch under one snapshot."""
        with phase("service_read", metric=_READ_MS):
            with self._admit("read"), self._lock.read_locked():
                result = execute_batch(
                    self._index, queries, ranges, k, l_budget=l_budget
                )
        self.stats.bump(reads=len(result), read_batches=1)
        return result

    # ------------------------------------------------------------------
    # Write plane (serialized)
    # ------------------------------------------------------------------
    def _check_writable(self) -> None:
        if self._read_only:
            raise RuntimeError(
                "service is read-only (replica apply mode); writes go to "
                "the primary and arrive here as shipped WAL records"
            )

    def apply_records(self, records: Sequence) -> int:
        """Apply replicated WAL records as one committed version step.

        The replica write path: records shipped from a primary's
        :class:`~repro.service.wal.WriteAheadLog` (in sequence order)
        are applied under the exclusive lock, so concurrent readers keep
        seeing consistent snapshots.  Nothing is re-logged — durability
        belongs to the primary; a restarted replica catches up from the
        newest snapshot plus the shipped tail.

        Args:
            records: :class:`~repro.service.wal.WalRecord`-shaped
                objects (``op``/``oid``/``attr``/``vector``).

        Returns:
            The number of records applied.

        Raises:
            RuntimeError: If this service owns a WAL (applying unlogged
                mutations would silently fork its durable history).
            ValueError: On an unknown record op.
        """
        if self._wal is not None:
            raise RuntimeError(
                "apply_records on a WAL-owning service would fork its "
                "durable history; replicas must not own a WAL"
            )
        applied = 0
        with phase("service_write", metric=_WRITE_MS):
            with self._lock.write_locked():
                for record in records:
                    if record.op == "insert":
                        self._index.insert(
                            record.oid,
                            np.asarray(record.vector, dtype=np.float64),
                            record.attr,
                        )
                    elif record.op == "delete":
                        self._index.delete(record.oid)
                    else:
                        raise ValueError(f"unknown record op {record.op!r}")
                    applied += 1
                if applied:
                    self._commit_write_unlocked()
        if applied:
            self._signal_maintenance()
        return applied

    def insert(self, oid: int, vector: np.ndarray, attr: float) -> None:
        """Insert one object; durable once the call returns (WAL mode)."""
        self._check_writable()
        vector = np.asarray(vector, dtype=np.float64)
        with phase("service_write", metric=_WRITE_MS):
            with self._admit("write"):
                with self._lock.write_locked():
                    self._index.insert(oid, vector, attr)
                    if self._wal is not None:
                        self._wal.append_insert(oid, float(attr), vector)
                    self._commit_write_unlocked()
        self._signal_maintenance()

    def insert_many(
        self,
        ids: Sequence[int],
        vectors: np.ndarray,
        attrs: Sequence[float],
    ) -> None:
        """Insert a batch of objects as one committed version step."""
        self._check_writable()
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        with phase("service_write", metric=_WRITE_MS):
            with self._admit("write"):
                with self._lock.write_locked():
                    self._index.insert_many(ids, vectors, attrs)
                    if self._wal is not None:
                        for oid, vector, attr in zip(ids, vectors, attrs):
                            self._wal.append_insert(
                                int(oid), float(attr), vector
                            )
                    self._commit_write_unlocked()
        self._signal_maintenance()

    def delete(self, oid: int) -> None:
        """Delete one object; durable once the call returns (WAL mode)."""
        self._check_writable()
        with phase("service_write", metric=_WRITE_MS):
            with self._admit("write"):
                with self._lock.write_locked():
                    self._index.delete(oid)
                    if self._wal is not None:
                        self._wal.append_delete(oid)
                    self._commit_write_unlocked()
        self._signal_maintenance()

    def delete_many(self, ids: Sequence[int]) -> None:
        """Delete a batch of objects as one committed version step."""
        self._check_writable()
        ids = list(ids)
        with phase("service_write", metric=_WRITE_MS):
            with self._admit("write"):
                with self._lock.write_locked():
                    self._index.delete_many(ids)
                    if self._wal is not None:
                        for oid in ids:
                            self._wal.append_delete(int(oid))
                    self._commit_write_unlocked()
        self._signal_maintenance()

    def _commit_write_unlocked(self) -> None:
        """Bump version/counters; caller must hold the write lock."""
        self._version += 1
        self._writes_since_snapshot += 1
        self.stats.bump(writes=1)

    # ------------------------------------------------------------------
    # Maintenance plane
    # ------------------------------------------------------------------
    def attach_maintenance_wakeup(self, event: threading.Event) -> None:
        """Register the daemon's wakeup event (set after every write)."""
        self._maintenance_wakeup = event

    def _signal_maintenance(self) -> None:
        wakeup = self._maintenance_wakeup
        if wakeup is not None:
            wakeup.set()

    def maintenance_due(self) -> bool:
        """Cheap, lock-free check whether the maintenance plane has work.

        May read slightly stale counters; the daemon re-validates under
        the write lock before doing anything.
        """
        # Documented lock-free read (see docstring): stale is acceptable.
        if bool(getattr(self._index, "maintenance_due", False)):  # repro: noqa-C002
            return True
        return (
            self._snapshot_every is not None
            and self._wal is not None
            and self._writes_since_snapshot >= self._snapshot_every  # repro: noqa-C002 — documented lock-free check
        )

    def run_maintenance(self, *, audit: bool | None = None) -> dict:
        """One maintenance cycle: rebuild if due, invalidate caches,
        snapshot if due, optionally audit invariants.

        Args:
            audit: Run ``check_invariants`` after the cycle; defaults to
                whether ``REPRO_SANITIZE`` is enabled.

        Returns:
            A report dict with ``rebuilt`` / ``snapshotted`` / ``audited``
            booleans.
        """
        from ..analysis.sanitize import sanitize_enabled

        if audit is None:
            audit = sanitize_enabled()
        report = {"rebuilt": False, "snapshotted": False, "audited": False}
        with self._lock.write_locked():
            if bool(getattr(self._index, "maintenance_due", False)):
                self._publish_cache_gauges_unlocked()
                with phase("rebuild", metric=_REBUILD_MS):
                    self._index.run_maintenance()
                    ivf = getattr(self._index, "ivf", None)
                    if ivf is not None and hasattr(ivf, "clear_caches"):
                        # Rebuilds change candidate enumeration, not
                        # distances, but dropping the ADC caches here bounds
                        # staleness and memory without ever touching the
                        # query path.
                        ivf.clear_caches()
                report["rebuilt"] = True
                self.stats.bump(rebuilds=1)
            else:
                self._publish_cache_gauges_unlocked()
            if audit:
                self._index.check_invariants()
                report["audited"] = True
                self.stats.bump(audits=1)
        if (
            self._snapshot_every is not None
            and self._wal is not None
            # Lock-free read after dropping the write lock: snapshot()
            # re-takes the lock and resets the counter; a stale value only
            # shifts one snapshot by a cycle.
            and self._writes_since_snapshot >= self._snapshot_every  # repro: noqa-C002
        ):
            self.snapshot()
            report["snapshotted"] = True
        if report["rebuilt"] or report["snapshotted"]:
            self.stats.bump(maintenance_runs=1)
        return report

    def _publish_cache_gauges_unlocked(self) -> None:
        """Publish the IVF cache hit-rates as gauges (maintenance plane).

        Reads the lifetime cache counters *before* any cache invalidation
        in the same cycle, so the gauges reflect served traffic rather
        than the post-clear state.
        """
        ivf = getattr(self._index, "ivf", None)
        if ivf is None or not hasattr(ivf, "cache_stats"):
            return
        stats = ivf.cache_stats()
        _TABLE_HIT_RATE.set(stats["table"].hit_rate)
        _CENTER_HIT_RATE.set(stats["center"].hit_rate)

    # ------------------------------------------------------------------
    # Control plane (knob get/set)
    # ------------------------------------------------------------------
    def knobs(self) -> dict:
        """Snapshot of the controller-managed knobs (read plane).

        Returns the current ``l_policy`` (the frozen policy object itself
        — immutable, so sharing the reference is safe) together with the
        committed version it was read at.
        """
        with self._lock.read_locked():
            return {
                "l_policy": getattr(self._index, "l_policy", None),
                "version": self._version,
            }

    def set_l_policy(self, policy) -> int:
        """Atomically swap the index's L policy (write plane).

        The whole frozen policy object is replaced under the exclusive
        lock; in-flight queries hold the shared side for their full
        execution, so each observes either the old or the new policy,
        never a torn mix.  The service version is bumped — without the
        write counters, a knob change is not a data write — so
        version-keyed consumers (the parallel backend's manifests embed
        the policy; tiered placements key on version) republish before
        serving again.

        This is the sanctioned mutation point for serving knobs: lint
        rule R013 flags direct ``l_policy`` assignment anywhere else in
        the serving layers.

        Returns:
            The new committed version.
        """
        if not hasattr(policy, "choose"):
            raise TypeError(
                f"policy must implement choose(coverage), got {policy!r}"
            )
        with self._lock.write_locked():
            self._index.l_policy = policy  # repro: noqa-R013
            self._version += 1
            return self._version

    def export_snapshot(
        self, path: str | Path, *, compressed: bool = False
    ) -> tuple[Path, int]:
        """Save the index to ``path`` under the read lock.

        Unlike :meth:`snapshot` this needs no WAL: it serves the tiered
        storage manager, which wants an *uncompressed* archive it can
        later map zero-copy with ``load_index(..., mmap_mode="r")``.

        Returns:
            ``(written_path, version)`` — the committed version the
            archive corresponds to.
        """
        from ..io import save_index

        with self._lock.read_locked():
            written = save_index(self._index, path, compressed=compressed)
            return written, self._version

    def publish_shared(self, store) -> tuple[dict, int]:
        """Publish the index into a shared-memory store (read plane).

        Runs under the read lock, so the published blocks are a
        consistent snapshot of some committed version — the version
        returned alongside the manifest.  Used by the sharded router's
        parallel backend to (re)publish a shard after writes.

        Args:
            store: A :class:`~repro.parallel.shm.SharedIndexStore`.

        Returns:
            ``(manifest, version)`` for the published snapshot.
        """
        with self._lock.read_locked():
            manifest = store.republish(self._index)
            return manifest, self._version

    def snapshot(self) -> Path:
        """Write a WAL snapshot of the current state.

        Runs under the *read* lock: writers pause, concurrent readers
        proceed, and the saved state corresponds exactly to the WAL's
        last appended sequence number.
        """
        if self._wal is None:
            raise RuntimeError("service has no WAL attached")
        with self._lock.read_locked():
            path = self._wal.write_snapshot(self._index)
            # Written under the read side on purpose: the RW lock excludes
            # writers (the only other mutators of this counter), and two
            # concurrent snapshots both storing 0 is benign.
            self._writes_since_snapshot = 0  # repro: noqa-C003
        self.stats.bump(snapshots=1)
        return path

    # ------------------------------------------------------------------
    # Durability / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, wal_dir: str | Path, **service_kwargs) -> "IndexService":
        """Rebuild a service from its durability directory.

        Loads the newest snapshot, replays the WAL tail, and returns a
        fresh service whose index state equals the last committed write
        before the crash.
        """
        index, _ = recover_index(wal_dir)
        return cls(index, wal_dir=wal_dir, **service_kwargs)

    def close(self) -> None:
        """Flush and close the WAL (the service stays queryable)."""
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.close()

    def _admit(self, kind: str):
        if self._admission is None:
            return nullcontext()
        return self._admission.admit(kind)


class GlobalLockService:
    """Baseline: one exclusive mutex around every operation.

    Reads serialize with each other and with writes; maintenance runs
    inline inside delete calls (the wrapped index keeps ``auto_rebuild``).
    Matches :class:`IndexService`'s read/write surface so the load
    generator and benchmarks can drive both interchangeably.
    """

    def __init__(
        self,
        index,
        *,
        admission: AdmissionController | None = None,
    ) -> None:
        self._index = index
        self._mutex = threading.Lock()
        self._version = 0
        self._admission = admission
        self.stats = ServiceStats()

    @property
    def index(self):
        """The wrapped index (do not mutate outside the service).

        Lock-free read: the binding never changes after construction.
        """
        return self._index  # repro: noqa-C002

    @property
    def version(self) -> int:
        """Number of committed writes (lock-free monitoring read; int
        loads are atomic under the GIL and staleness is acceptable)."""
        return self._version  # repro: noqa-C002

    def __len__(self) -> int:
        with self._mutex:
            return len(self._index)

    def __contains__(self, oid: int) -> bool:
        with self._mutex:
            return oid in self._index

    def memory_bytes(self) -> int:
        """C-equivalent bytes of the wrapped index."""
        with self._mutex:
            return self._index.memory_bytes()

    def check_invariants(self) -> None:
        """Audit the wrapped index under the global lock."""
        with self._mutex:
            self._index.check_invariants()

    def query(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> QueryResult:
        """Range-filtered top-``k`` query under the global lock."""
        return self.query_versioned(
            query_vector, lo, hi, k, l_budget=l_budget
        )[0]

    def query_versioned(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> tuple[QueryResult, int]:
        """Like :meth:`query`, also returning the version read."""
        with self._admit("read"), self._mutex:
            result = self._index.query(
                query_vector, lo, hi, k, l_budget=l_budget
            )
            version = self._version
        self.stats.bump(reads=1, read_batches=1)
        return result, version

    def query_batch(
        self,
        queries: np.ndarray,
        ranges: Sequence[tuple[float, float]],
        k: int,
        *,
        l_budget: int | None = None,
    ) -> BatchResult:
        """Answer a caller-assembled batch under the global lock."""
        with self._admit("read"), self._mutex:
            result = execute_batch(
                self._index, queries, ranges, k, l_budget=l_budget
            )
        self.stats.bump(reads=len(result), read_batches=1)
        return result

    def insert(self, oid: int, vector: np.ndarray, attr: float) -> None:
        """Insert one object under the global lock."""
        with self._admit("write"), self._mutex:
            self._index.insert(oid, vector, attr)
            self._version += 1
        self.stats.bump(writes=1)

    def delete(self, oid: int) -> None:
        """Delete one object under the global lock (maintenance inline)."""
        with self._admit("write"), self._mutex:
            self._index.delete(oid)
            self._version += 1
        self.stats.bump(writes=1)

    def _admit(self, kind: str):
        if self._admission is None:
            return nullcontext()
        return self._admission.admit(kind)
