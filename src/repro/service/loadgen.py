"""Closed-loop workload driver for the serving layer.

``num_readers`` reader threads and ``num_writers`` writer threads issue
requests back-to-back (closed loop: each thread's next request starts when
its previous one returns) against anything exposing the service surface
(``query`` / ``insert`` / ``delete``).  The driver reports aggregate and
per-plane QPS plus p50/p95/p99 latencies, counts shed requests
(:class:`~repro.service.admission.AdmissionError`) separately from
failures, and runs a cheap well-formedness probe on every read result —
ids unique, at most ``k`` of them, distances finite and non-decreasing —
so gross consistency breakage (a read observing a half-applied write)
surfaces as a nonzero ``violations`` count rather than silence.

Attribute centers are drawn uniformly or Zipf-skewed (``zipf_s > 0``):
skew concentrates both query ranges and writes on a hot region of the
attribute domain, the adversarial case for shard routing and rebuild
triggers alike.

Besides the closed loop, reads support an **open-loop** mode
(``open_loop_qps``): arrivals follow a precomputed Poisson schedule at a
fixed offered rate, reader threads claim arrivals in order, and latency
is measured from the *scheduled arrival time* — so queueing delay shows
up in the percentiles instead of silently throttling the offered load.
That is the mode that lets a parallel backend and a thread baseline be
compared at matched offered QPS.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs import histogram, phase
from .admission import AdmissionError

__all__ = ["WorkloadSpec", "OpStats", "LoadReport", "run_load"]

_ZIPF_BINS = 256
_CLIENT_READ_MS = histogram("loadgen.read_latency_ms")
_CLIENT_WRITE_MS = histogram("loadgen.write_latency_ms")


@dataclass
class WorkloadSpec:
    """Shape of the synthetic request stream.

    Attributes:
        dim: Query/insert vector dimensionality.
        attr_low, attr_high: The attribute domain.
        range_fraction: Query range width as a fraction of the domain.
        k: Top-k per query.
        l_budget: Retrieval budget forwarded to ``query`` (None = policy).
        zipf_s: Zipf exponent for attribute centers (and for query-pool
            ranks when a pool is set); 0 or less = uniform.
        delete_fraction: Probability a writer op is a delete of one of its
            own earlier inserts (when it has any) instead of an insert.
        seed: Base seed; thread ``t`` derives ``seed + t``.
        query_pool: Optional ``(m, dim)`` array of reusable query vectors;
            readers draw from it (Zipf-ranked when ``zipf_s > 0``) instead
            of sampling fresh Gaussians — the serving-shaped stream where
            the ADC-table cache pays off.
        range_templates: Optional fixed ``(lo, hi)`` pool; readers draw
            ranges from it instead of deriving them from a sampled center.
    """

    dim: int = 32
    attr_low: float = 0.0
    attr_high: float = 1.0
    range_fraction: float = 0.2
    k: int = 10
    l_budget: int | None = None
    zipf_s: float = 0.0
    delete_fraction: float = 0.5
    seed: int = 0
    query_pool: np.ndarray | None = None
    range_templates: list | None = None


@dataclass
class OpStats:
    """Latency/outcome aggregate for one op kind.

    Attributes:
        completed: Requests that returned a result.
        rejected: Requests shed by admission control.
        deadline_exceeded: Requests that timed out (any
            :class:`TimeoutError`, including the front door's
            ``DEADLINE_EXCEEDED`` responses).
        connection_errors: Requests lost to a broken transport
            (:class:`ConnectionError` / :class:`OSError`).
        failed: Requests that raised anything else.
        latencies_ms: Service latency of each completed request
            (request issued → response).
        sched_latencies_ms: Open-loop only — latency of each completed
            request measured from its *scheduled arrival*, so queueing
            delay behind a saturated service is visible.
    """

    completed: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    connection_errors: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    sched_latencies_ms: list = field(default_factory=list)

    def percentile(self, q: float) -> float:
        """Service-latency percentile in ms (0.0 when nothing completed)."""
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(self.latencies_ms, q))

    def sched_percentile(self, q: float) -> float:
        """Scheduled-arrival latency percentile in ms (open loop only;
        0.0 when the run was closed-loop)."""
        if not self.sched_latencies_ms:
            return 0.0
        return float(np.percentile(self.sched_latencies_ms, q))


def _classify_failure(error: BaseException) -> str:
    """The :class:`OpStats` counter an exception belongs to.

    Order matters: :class:`TimeoutError` and :class:`ConnectionError`
    both subclass :class:`OSError`, so the deadline check runs first.
    """
    if isinstance(error, TimeoutError):
        return "deadline_exceeded"
    if getattr(error, "code", None) == "DEADLINE_EXCEEDED":
        return "deadline_exceeded"
    if isinstance(error, (ConnectionError, OSError)):
        return "connection_errors"
    return "failed"


@dataclass
class LoadReport:
    """Outcome of one closed-loop run.

    Attributes:
        duration_s: Measured wall-clock run time.
        reads, writes: Per-plane :class:`OpStats`.
        violations: Read results failing the well-formedness probe.
        errors: First few exception strings from failed ops (diagnostic).
    """

    duration_s: float
    reads: OpStats
    writes: OpStats
    violations: int
    errors: list

    @property
    def read_qps(self) -> float:
        return self.reads.completed / self.duration_s

    @property
    def write_qps(self) -> float:
        return self.writes.completed / self.duration_s

    @property
    def total_qps(self) -> float:
        return (
            self.reads.completed + self.writes.completed
        ) / self.duration_s

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"duration        {self.duration_s:8.2f} s",
            f"total QPS       {self.total_qps:8.1f}",
            (
                f"reads           {self.reads.completed:8d}"
                f"  ({self.read_qps:.1f}/s,"
                f" p50 {self.reads.percentile(50):.2f} ms,"
                f" p95 {self.reads.percentile(95):.2f} ms,"
                f" p99 {self.reads.percentile(99):.2f} ms)"
            ),
            (
                f"writes          {self.writes.completed:8d}"
                f"  ({self.write_qps:.1f}/s,"
                f" p50 {self.writes.percentile(50):.2f} ms,"
                f" p95 {self.writes.percentile(95):.2f} ms,"
                f" p99 {self.writes.percentile(99):.2f} ms)"
            ),
            (
                f"shed            {self.reads.rejected:8d} reads,"
                f" {self.writes.rejected} writes"
            ),
            (
                f"deadline        {self.reads.deadline_exceeded:8d} reads,"
                f" {self.writes.deadline_exceeded} writes"
            ),
            (
                f"conn errors     {self.reads.connection_errors:8d} reads,"
                f" {self.writes.connection_errors} writes"
            ),
            (
                f"failed          {self.reads.failed:8d} reads,"
                f" {self.writes.failed} writes"
            ),
            f"violations      {self.violations:8d}",
        ]
        if self.reads.sched_latencies_ms:
            lines.insert(
                3,
                (
                    f"reads (sched)   {'':8s}"
                    f"  (open loop,"
                    f" p50 {self.reads.sched_percentile(50):.2f} ms,"
                    f" p95 {self.reads.sched_percentile(95):.2f} ms,"
                    f" p99 {self.reads.sched_percentile(99):.2f} ms)"
                ),
            )
        if self.errors:
            lines.append(f"first errors    {self.errors}")
        return "\n".join(lines)


def _sample_center(rng: np.random.Generator, spec: WorkloadSpec) -> float:
    """One attribute center, uniform or Zipf-skewed over binned positions."""
    span = spec.attr_high - spec.attr_low
    if spec.zipf_s <= 0:
        return spec.attr_low + span * float(rng.random())
    rank = int(rng.zipf(spec.zipf_s))
    position = ((rank - 1) % _ZIPF_BINS + float(rng.random())) / _ZIPF_BINS
    return spec.attr_low + span * position


def _probe_result(result, k: int) -> bool:
    """True when a read result is well-formed (see module docstring)."""
    ids = np.asarray(result.ids)
    distances = np.asarray(result.distances, dtype=np.float64)
    if len(ids) != len(distances) or len(ids) > k:
        return False
    if len(ids) != len(set(ids.tolist())):
        return False
    if not np.all(np.isfinite(distances)):
        return False
    return bool(np.all(np.diff(distances) >= 0))


def run_load(
    service,
    spec: WorkloadSpec,
    *,
    duration_s: float,
    num_readers: int,
    num_writers: int,
    writer_oid_base: int = 1_000_000_000,
    on_read=None,
    open_loop_qps: float | None = None,
) -> LoadReport:
    """Drive ``service`` with a closed-loop mixed workload.

    Args:
        service: Anything with the service surface; only ``query`` is
            needed when ``num_writers == 0``.
        spec: Request-stream shape.
        duration_s: How long to run after all threads are ready.
        num_readers: Closed-loop query threads.
        num_writers: Closed-loop insert/delete threads.  Writer ``w`` owns
            oids ``writer_oid_base + w * 10**6 + i``, so writers never
            collide with each other or (given a sane base) the initial
            population, and every delete targets the writer's own earlier
            insert.
        on_read: Optional callback ``(result, version_or_None)`` run by
            reader threads on every completed read — the concurrency tests
            use it to record (version, result) pairs for oracle replay.
        open_loop_qps: When set, reads switch to open loop: a Poisson
            arrival schedule at this offered rate is drawn up front
            (``spec.seed``-deterministic), reader threads claim arrivals
            in order and sleep until each scheduled instant, and each
            completed read records **two** latencies: service latency
            (into ``latencies_ms``) and scheduled-arrival latency (into
            ``sched_latencies_ms``) — a service that cannot keep up
            accumulates queueing delay in the sched percentiles rather
            than quietly lowering the offered load, while the service
            percentiles stay comparable with closed-loop runs.  Writers
            stay closed-loop.

    Returns:
        A :class:`LoadReport`.
    """
    if num_readers < 0 or num_writers < 0:
        raise ValueError("thread counts must be >= 0")
    if num_readers + num_writers == 0:
        raise ValueError("need at least one thread")
    if open_loop_qps is not None and open_loop_qps <= 0:
        raise ValueError(f"open_loop_qps must be > 0, got {open_loop_qps}")
    reads = OpStats()
    writes = OpStats()
    totals_mutex = threading.Lock()
    violations = [0]
    errors: list = []
    stop = threading.Event()
    start_barrier = threading.Barrier(num_readers + num_writers + 1)
    has_versioned = hasattr(service, "query_versioned")

    schedule: np.ndarray | None = None
    next_arrival = [0]
    arrival_mutex = threading.Lock()
    if open_loop_qps is not None and num_readers > 0:
        arrival_rng = np.random.default_rng(spec.seed + 777)
        gaps = arrival_rng.exponential(
            1.0 / open_loop_qps,
            size=max(1, int(open_loop_qps * duration_s * 2)),
        )
        offsets = np.cumsum(gaps)
        schedule = offsets[offsets < duration_s]

    def _claim_arrival() -> int | None:
        """Next unclaimed arrival index, or None when the schedule is done."""
        with arrival_mutex:
            index = next_arrival[0]
            if index >= len(schedule):
                return None
            next_arrival[0] = index + 1
            return index

    def reader(thread_number: int) -> None:
        rng = np.random.default_rng(spec.seed + thread_number)
        local = OpStats()
        local_violations = 0
        pool = spec.query_pool
        if pool is not None and spec.zipf_s > 0:
            pool_weights = (
                np.arange(1, len(pool) + 1, dtype=np.float64) ** -spec.zipf_s
            )
            pool_weights /= pool_weights.sum()
        else:
            pool_weights = None
        start_barrier.wait()
        epoch = time.monotonic()
        target_s: float | None = None
        while not stop.is_set():
            if schedule is not None:
                arrival = _claim_arrival()
                if arrival is None:
                    break
                target_s = epoch + float(schedule[arrival])
                delay = target_s - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            if pool is not None:
                vector = pool[rng.choice(len(pool), p=pool_weights)]
            else:
                vector = rng.standard_normal(spec.dim)
            if spec.range_templates:
                lo, hi = spec.range_templates[
                    int(rng.integers(len(spec.range_templates)))
                ]
            else:
                center = _sample_center(rng, spec)
                width = (
                    spec.attr_high - spec.attr_low
                ) * spec.range_fraction
                lo, hi = center - width / 2, center + width / 2
            try:
                with phase("client_read", metric=_CLIENT_READ_MS) as timer:
                    if has_versioned:
                        result, version = service.query_versioned(
                            vector, lo, hi, spec.k, l_budget=spec.l_budget
                        )
                    else:
                        result = service.query(
                            vector, lo, hi, spec.k, l_budget=spec.l_budget
                        )
                        version = None
            except AdmissionError:
                local.rejected += 1
                continue
            except BaseException as error:  # repro: noqa-R004 - tallied
                category = _classify_failure(error)
                setattr(local, category, getattr(local, category) + 1)
                if category == "failed":
                    with totals_mutex:
                        if len(errors) < 5:
                            errors.append(f"read: {error!r}")
                continue
            local.latencies_ms.append(timer.ms)
            if target_s is not None:
                # Open loop: also count from the scheduled arrival, so
                # time spent waiting for a free thread is visible.
                local.sched_latencies_ms.append(
                    (time.monotonic() - target_s) * 1000.0
                )
            local.completed += 1
            if not _probe_result(result, spec.k):
                local_violations += 1
            if on_read is not None:
                on_read(result, version)
        with totals_mutex:
            _merge(reads, local)
            violations[0] += local_violations

    def writer(thread_number: int) -> None:
        rng = np.random.default_rng(spec.seed + 10_000 + thread_number)
        local = OpStats()
        owned: list[int] = []
        next_oid = writer_oid_base + thread_number * 10**6
        start_barrier.wait()
        while not stop.is_set():
            do_delete = owned and rng.random() < spec.delete_fraction
            try:
                with phase(
                    "client_write", metric=_CLIENT_WRITE_MS
                ) as timer:
                    if do_delete:
                        victim = owned.pop(int(rng.integers(len(owned))))
                        service.delete(victim)
                    else:
                        attr = _sample_center(rng, spec)
                        service.insert(
                            next_oid, rng.standard_normal(spec.dim), attr
                        )
                        owned.append(next_oid)
                        next_oid += 1
            except AdmissionError:
                local.rejected += 1
                if do_delete:
                    owned.append(victim)  # not deleted; still live
                continue
            except BaseException as error:  # repro: noqa-R004 - tallied
                category = _classify_failure(error)
                setattr(local, category, getattr(local, category) + 1)
                if do_delete:
                    # Outcome unknown or failed; assume still live so a
                    # later delete retries rather than orphaning the oid.
                    owned.append(victim)
                if category == "failed":
                    with totals_mutex:
                        if len(errors) < 5:
                            errors.append(f"write: {error!r}")
                continue
            local.latencies_ms.append(timer.ms)
            local.completed += 1
        with totals_mutex:
            _merge(writes, local)

    threads = [
        threading.Thread(target=reader, args=(t,), name=f"loadgen-r{t}")
        for t in range(num_readers)
    ] + [
        threading.Thread(target=writer, args=(t,), name=f"loadgen-w{t}")
        for t in range(num_writers)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    with phase("loadgen_run") as run_timer:
        time.sleep(duration_s)
        stop.set()
        for thread in threads:
            thread.join()
    return LoadReport(
        duration_s=run_timer.ms / 1000.0,
        reads=reads,
        writes=writes,
        violations=violations[0],
        errors=errors,
    )


def _merge(total: OpStats, local: OpStats) -> None:
    total.completed += local.completed
    total.rejected += local.rejected
    total.deadline_exceeded += local.deadline_exceeded
    total.connection_errors += local.connection_errors
    total.failed += local.failed
    total.latencies_ms.extend(local.latencies_ms)
    total.sched_latencies_ms.extend(local.sched_latencies_ms)
