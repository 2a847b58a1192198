"""The five workloads: what each offers, through which path, and its checks.

Every workload carries reads *and* writes, because the paper's claim is a
three-way trade between query time, update time and space, and a change
that buys one with another must show in one run.  What differs between
workloads is the request mix (``Mix``) and the path the requests take
(bare index, WAL-backed service, 4-shard router, TCP front door).  The
reasons for each choice are in ``README.md`` next to this file and, in one
line each, in ``WORKLOADS[name].why``.

Nothing here reaches into the program: layers are driven through their
public functions and timed from outside.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import math
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.control.tiering import TieredReadPath
from repro.core import AdaptiveLPolicy, RangePQ
from repro.datasets import load_workload
from repro.eval.groundtruth import exact_range_knn
from repro.eval.harness import scaled_l_base
from repro.frontend.client import FrontendClient
from repro.frontend.server import FrontendServer
from repro.frontend.tenancy import TenantConfig
from repro.ivf import IVFPQIndex
from repro.service.admission import AdmissionError
from repro.service.engine import IndexService
from repro.service.router import RangeShardedService

from stats import OpenLoopLog, Outcomes, summarize_ms

#: Neighbours asked for by every request.
K = 10
#: Tenants of the front door; every phase offers them equal load.
TENANTS = ("tenant-a", "tenant-b")
#: Deadline every front-door request carries.
DEADLINE_MS = 500.0
#: Outstanding requests on the one connection in the closed-loop phase.
CLOSED_LOOP_DEPTH = 8


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark profile; every value is recorded in the result.

    ``train_iter``/``train_points`` shorten the k-means training (defaults
    are 20 iterations over 20 000 points, about 15 s here) so that set-up
    can be repeated ``setup_repeats`` times per run and reported as a
    median inside the driver's time budget.
    """

    name: str
    n: int
    dim: int
    subspaces: int
    codewords: int
    pool: int
    hot: int
    window: int
    shards: int
    train_iter: int
    train_points: int
    setup_repeats: int
    probes: int
    rate_ops_s: float
    executor_threads: int
    recovery_tail_steps: int


FULL = Profile(
    name="full", n=20_000, dim=64, subspaces=16, codewords=256, pool=2048,
    hot=64, window=2500, shards=4, train_iter=6, train_points=4000,
    setup_repeats=3, probes=200, rate_ops_s=100.0, executor_threads=2,
    recovery_tail_steps=500,
)
SMOKE = Profile(
    name="smoke", n=2000, dim=64, subspaces=16, codewords=256, pool=512,
    hot=64, window=400, shards=4, train_iter=4, train_points=2000,
    setup_repeats=1, probes=50, rate_ops_s=50.0, executor_threads=2,
    recovery_tail_steps=100,
)
PROFILES = {"full": FULL, "smoke": SMOKE}


@dataclass(frozen=True)
class Mix:
    """The request mix a workload offers.

    Attributes:
        coverages: Lowest and highest range coverage (share of the live
            objects inside a query's range).
        draw: ``"uniform"`` between the two, or ``"window_tail"`` (the
            newest ``coverages[0]`` of a sliding window).  Coverage is
            drawn from a continuum on purpose: two alternating values make
            latency bimodal, and the median of a bimodal sample sits in
            the gap between the modes and moves with the slightest noise.
        writes: ``"random"`` (new objects at attributes drawn from the
            data's own distribution, random victims) or ``"window"``
            (strictly increasing attributes, oldest victim: every insert
            lands on the tree's right spine).
        write_share: Share of writes where reads and writes interleave on
            one stream (front-door phases); two thirds of them inserts.
        hot_share: Share of queries that repeat one of ``Profile.hot``
            popular vectors; the rest are vectors never seen before, so
            the program's 256-entry ADC-table cache only helps this share.
    """

    coverages: tuple[float, float]
    draw: str
    writes: str
    write_share: float
    hot_share: float


@dataclass(frozen=True)
class Request:
    """One range-filtered top-``K`` query."""

    vector: np.ndarray
    lo: float
    hi: float


class Base:
    """What every stack in a run shares: data, trained substrate, ``L`` policy."""

    def __init__(self, profile: Profile, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        started = time.perf_counter()
        self.data = load_workload(
            "sift", n=profile.n, d=profile.dim, num_queries=profile.pool, seed=seed
        )
        self.generate_s = time.perf_counter() - started
        started = time.perf_counter()
        self.substrate = IVFPQIndex(
            profile.subspaces,
            num_clusters=math.ceil(math.sqrt(profile.n)),
            num_codewords=profile.codewords,
            seed=seed,
        ).train(
            self.data.vectors,
            max_iter=profile.train_iter,
            max_training_points=profile.train_points,
        )
        self.train_s = time.perf_counter() - started
        self.policy = AdaptiveLPolicy(
            l_base=scaled_l_base("sift", profile.n), r_base=0.10
        )
        self.sorted_attrs = np.sort(self.data.attrs)

    def build(self, rows: np.ndarray, cls=RangePQ):
        """An index of class ``cls`` over dataset rows, on the shared substrate."""
        return cls.build(
            self.data.vectors[rows],
            self.data.attrs[rows],
            ids=[int(row) for row in rows],
            ivf=self.substrate.clone_empty(),
            l_policy=self.policy,
        )

    def build_router(self, rows: np.ndarray) -> RangeShardedService:
        """A range-sharded router over dataset rows, one RangePQ per shard."""
        data = self.data

        def factory(ids, vectors, attrs):
            return RangePQ.build(
                vectors, attrs, ids=[int(oid) for oid in ids],
                ivf=self.substrate.clone_empty(), l_policy=self.policy,
            )

        return RangeShardedService.build(
            rows, data.vectors[rows], data.attrs[rows],
            num_shards=self.profile.shards, index_factory=factory,
        )


class OpStream:
    """Seeded source of one workload's operations, and the truth about them.

    The program only ever receives the generated inputs.  The stream also
    remembers which objects are live (by acknowledged writes), which is
    what the exact-answer oracle and the live-count checks compare with.
    """

    def __init__(self, base: Base, mix: Mix) -> None:
        self.base = base
        self.mix = mix
        self.rng = np.random.default_rng([base.seed, 0xBE7C4])
        data, profile = base.data, base.profile
        if mix.writes == "window":
            order = np.argsort(data.attrs, kind="stable")[: profile.window]
            self.rows = np.sort(order)
            self.window = deque(
                (int(row), float(data.attrs[row])) for row in order
            )
            self.last_attr = self.window[-1][1]
        else:
            self.rows = np.arange(profile.n)
            self.live = [int(row) for row in self.rows]
        self.attr_of = {int(row): float(data.attrs[row]) for row in self.rows}
        self.added: dict[int, np.ndarray] = {}
        self.next_oid = profile.n
        self.cold_cursor = 0

    # -- reads ---------------------------------------------------------
    def query(self) -> Request:
        """The next query of the mix."""
        mix, profile, rng = self.mix, self.base.profile, self.rng
        pool = self.base.data.queries
        if mix.hot_share and rng.random() < mix.hot_share:
            vector = pool[int(rng.integers(profile.hot))]
        else:
            cold = profile.pool - profile.hot
            vector = pool[profile.hot + self.cold_cursor % cold]
            self.cold_cursor += 1
        if mix.draw == "window_tail":
            tail = max(1, int(round(mix.coverages[0] * len(self.window))))
            return Request(vector, self.window[-tail][1], self.window[-1][1])
        coverage = float(rng.uniform(*mix.coverages))
        ordered = self.base.sorted_attrs
        span = max(1, int(round(coverage * len(ordered))))
        start = int(rng.integers(0, len(ordered) - span + 1))
        return Request(
            vector, float(ordered[start]), float(ordered[start + span - 1])
        )

    def queries(self, count: int) -> list[Request]:
        return [self.query() for _ in range(count)]

    # -- writes --------------------------------------------------------
    def insert(self) -> tuple[int, np.ndarray, float]:
        """A new object: a jittered copy of a dataset row at a fresh id.

        Call :meth:`inserted` once the program acknowledged it.
        """
        data, rng = self.base.data, self.rng
        row = int(rng.integers(len(data.vectors)))
        vector = np.clip(
            data.vectors[row] + rng.normal(scale=1.0, size=data.dim), 0.0, None
        )
        if self.mix.writes == "window":
            self.last_attr += 1.0 + float(rng.random())
            attr = self.last_attr
        else:
            attr = float(self.base.sorted_attrs[int(rng.integers(len(data.attrs)))])
        oid = self.next_oid
        self.next_oid += 1
        return oid, vector, attr

    def inserted(self, oid: int, vector: np.ndarray, attr: float) -> None:
        self.attr_of[oid] = attr
        self.added[oid] = vector
        if self.mix.writes == "window":
            self.window.append((oid, attr))
        else:
            self.live.append(oid)

    def delete(self) -> int:
        """The next victim (oldest of the window, or a random live object)."""
        if self.mix.writes == "window":
            oid = self.window.popleft()[0]
        else:
            position = int(self.rng.integers(len(self.live)))
            self.live[position], self.live[-1] = self.live[-1], self.live[position]
            oid = self.live.pop()
        del self.attr_of[oid]
        self.added.pop(oid, None)
        return oid

    # -- truth ---------------------------------------------------------
    def live_count(self) -> int:
        return len(self.attr_of)

    def live_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, vectors, attrs)`` of every live object, for the oracle."""
        ids = np.fromiter(self.attr_of, dtype=np.int64, count=len(self.attr_of))
        attrs = np.fromiter(
            self.attr_of.values(), dtype=np.float64, count=len(self.attr_of)
        )
        data = self.base.data.vectors
        vectors = np.stack(
            [self.added[int(o)] if o >= len(data) else data[int(o)] for o in ids]
        )
        return ids, vectors, attrs


class Recorder:
    """Latency samples, outcomes and space samples of one untraced run."""

    def __init__(self) -> None:
        self.query_s: list[float] = []
        self.insert_s: list[float] = []
        self.delete_s: list[float] = []
        self.outcomes = Outcomes()
        self.index_bytes: list[int] = []
        self.notes: dict = {}
        # Set only by a workload whose throughput is not one client's
        # requests over their latencies (the front door's closed-loop
        # phase, which has 8 in flight: completions over wall time).
        self.query_qps: float | None = None
        self.write_ops_s: float | None = None

    def call(self, sink: list, kind: str, function, *args):
        """Time one request into ``sink``; returns ``(succeeded, result)``.

        A raise counts as a failed request and leaves no latency sample.
        """
        self.outcomes.attempt()
        started = time.perf_counter()
        try:
            result = function(*args)
        except Exception:  # outcome barrier: any failure is a counted outcome
            self.outcomes.fail("error", f"{kind}: {traceback.format_exc(limit=3)}")
            return False, None
        sink.append(time.perf_counter() - started)
        return True, result

    def answers(self, query, probes: list[Request]) -> list:
        """``query``'s answer to each probe (``None`` where it raised)."""
        return [
            self.call([], "probe", query, p.vector, p.lo, p.hi, K)[1] for p in probes
        ]


def total_index_bytes(target) -> int:
    """``memory_bytes()`` of an index or service; summed over a router's shards."""
    if hasattr(target, "memory_bytes"):
        return int(target.memory_bytes())
    return sum(int(shard.memory_bytes()) for shard in target.shards)


# ----------------------------------------------------------------------
# Closed-loop drivers (one client thread, zero think time)
# ----------------------------------------------------------------------
# A warm-up is the same loop recorded into a ``Recorder`` that is thrown away.
def run_reads(target, requests, seconds: float, rec: Recorder) -> None:
    """Issue the next of ``requests`` (an endless iterator) for ``seconds``.

    Warm-up and timed rounds share one iterator, so a timed round never
    restarts on vectors the warm-up left in the program's ADC-table cache.
    """
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        request = next(requests)
        rec.call(rec.query_s, "query", target.query,
                 request.vector, request.lo, request.hi, K)


def run_writes(target, stream: OpStream, seconds: float, rec: Recorder) -> None:
    """Insert one object, delete one, repeat for ``seconds``."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        oid, vector, attr = stream.insert()
        if rec.call(rec.insert_s, "insert", target.insert, oid, vector, attr)[0]:
            stream.inserted(oid, vector, attr)
        rec.call(rec.delete_s, "delete", target.delete, stream.delete())


# ----------------------------------------------------------------------
# Correctness helpers
# ----------------------------------------------------------------------
def same_answer(a, b) -> bool:
    """Bitwise equality of two answers' ids and distances."""
    return np.array_equal(np.asarray(a.ids), np.asarray(b.ids)) and np.array_equal(
        np.asarray(a.distances), np.asarray(b.distances)
    )


def grade_probes(stream: OpStream, probes: list[Request], answers, rec: Recorder):
    """Check each answer against the live set; return mean overlap@K.

    An answer is wrong when it names an object that is not live or not in
    the range, repeats one, or is not in ascending distance order.  The
    overlap is the share of the exact top-``K`` (brute force over the live
    set) that the answer contains, averaged over probes with a non-empty
    exact answer — EXPERIMENTS.md's ``overlap@k``.
    """
    ids, vectors, attrs = stream.live_arrays()
    overlaps = []
    for request, answer in zip(probes, answers):
        if answer is None:  # it raised, and was counted as failed then
            continue
        got = [int(oid) for oid in answer.ids]
        distances = np.asarray(answer.distances)
        valid = (
            len(set(got)) == len(got) <= K
            and all(
                oid in stream.attr_of and request.lo <= stream.attr_of[oid] <= request.hi
                for oid in got
            )
            and bool(np.all(distances[1:] >= distances[:-1]))
        )
        if not valid:
            rec.outcomes.fail("wrong", f"bad answer for range [{request.lo}, {request.hi}]")
            continue
        exact = exact_range_knn(
            vectors, attrs, request.vector, request.lo, request.hi, K, ids=ids
        )
        if len(exact):
            overlaps.append(len(set(got) & set(exact.tolist())) / len(exact))
    return float(np.mean(overlaps)) if overlaps else 0.0


class Check:
    """Named correctness checks of one run; all must pass."""

    def __init__(self) -> None:
        self.ran: list[str] = []
        self.failures: list[str] = []

    def that(self, name: str, passed: bool, detail: str = "") -> None:
        self.ran.append(name)
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def runs(self, name: str, function) -> None:
        """A check that passes when ``function`` does not raise."""
        try:
            function()
        except AssertionError as error:
            self.that(name, False, str(error))
        else:
            self.that(name, True)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Driver:
    """One workload's life: set up, drive, check, close.

    Subclasses say which stack the requests go through (``build_target``),
    how they are offered (``drive``) and which other path must give the
    same answers bitwise (``check_equivalent``).
    """

    def __init__(self, mix: Mix) -> None:
        self.mix = mix

    def setup(self, profile: Profile, seed: int, scratch: Path) -> None:
        """Everything ``setup_s`` covers: data, substrate, the stack."""
        self.scratch = scratch
        self.base = Base(profile, seed)
        self.stream = OpStream(self.base, self.mix)
        self.target = self.build_target()

    def check(self, rec: Recorder, check: Check) -> float:
        """Run the correctness checks; returns overlap@K of the probes."""
        self.probes = self.choose_probes()
        target = self.target
        check.that("live_count", len(target) == self.stream.live_count(),
                   f"holds {len(target)}, acknowledged {self.stream.live_count()}")
        check.runs("check_invariants", target.check_invariants)
        answers = rec.answers(target.query, self.probes)
        self.check_equivalent(answers, check)
        return grade_probes(self.stream, self.probes, answers, rec)

    def choose_probes(self) -> list[Request]:
        return self.stream.queries(self.base.profile.probes)

    def close(self) -> None:
        if hasattr(self.target, "close"):  # a bare index has nothing to close
            self.target.close()


class InProcess(Driver):
    """Reads then writes, closed loop, against a bare ``RangePQ``.

    ``seconds`` splits 75 % reads (four pooled rounds) / 25 % writes.
    """

    read_share = 0.75
    rounds = 4

    def build_target(self):
        return self.base.build(self.stream.rows)

    def drive(self, seconds: float, rec: Recorder) -> None:
        requests = itertools.cycle(self.stream.queries(self.base.profile.pool))
        rec.index_bytes.append(total_index_bytes(self.target))
        run_reads(self.target, requests, min(1.0, 0.1 * seconds), Recorder())
        run_writes(self.target, self.stream, min(0.5, 0.05 * seconds), Recorder())
        gc.collect()
        for _ in range(self.rounds):
            run_reads(self.target, requests, self.read_share * seconds / self.rounds, rec)
        run_writes(self.target, self.stream, (1.0 - self.read_share) * seconds, rec)

    def check_equivalent(self, answers, check: Check) -> None:
        batch = self.target.batch_search(
            np.stack([p.vector for p in self.probes]),
            [(p.lo, p.hi) for p in self.probes], K,
        )
        check.that(
            "query_equals_batch_search",
            all(a is not None and same_answer(a, b) for a, b in zip(answers, batch)),
        )


class ScatterWide(InProcess):
    """The same reads and writes through the 4-shard in-process router."""

    def build_target(self):
        return self.base.build_router(self.stream.rows)

    def check_equivalent(self, answers, check: Check) -> None:
        for tier in ("hot", "cold"):
            with every_shard_on(tier, self.target, self.scratch) as tiered:
                same = all(
                    a is not None
                    and same_answer(a, tiered.query(p.vector, p.lo, p.hi, K))
                    for p, a in zip(self.probes, answers)
                )
            check.that(f"router_equals_tier_{tier}", same)


@contextlib.contextmanager
def every_shard_on(tier: str, router: RangeShardedService, scratch: Path):
    """A ``TieredReadPath`` over ``router`` with every shard ``"hot"`` or ``"cold"``.

    Shards start cold; promotion is earned, so for ``"hot"`` each shard is
    given an access and one rebalance pass with room for all of them.
    """
    capacity = router.num_shards if tier == "hot" else 0
    with TieredReadPath.for_router(
        router, snapshot_dir=scratch / f"tier-{tier}", hot_capacity=capacity
    ) as tiered:
        tiered.warm()
        if capacity:
            for number in range(tiered.num_shards):
                tiered.record_access(number)
            tiered.rebalance()
        placed = {placement["tier"] for placement in tiered.placements()}
        if placed != {tier}:
            raise AssertionError(f"shards are on {sorted(placed)}, wanted all {tier}")
        yield tiered


class ChurnWindow(Driver):
    """WoW-style sliding window through a WAL-backed ``IndexService``.

    Each step inserts one object with a strictly larger attribute, deletes
    the oldest, and every fourth step queries the newest tenth of the
    window.  Flush policy: every WAL record is flushed, none is fsynced.
    Rebuilds run inline (``defer_maintenance=False``), so the weight-balance
    subtree rebuilds and the ``2·inv > size`` global rebuild are paid by
    the writes that trigger them.
    """

    query_every = 4
    service_options = {"fsync": False, "defer_maintenance": False}

    def build_target(self):
        return IndexService(
            self.base.build(self.stream.rows), wal_dir=self.scratch / "wal",
            **self.service_options,
        )

    def steps(self, rec: Recorder, *, seconds: float = 0.0, count: int = 0) -> int:
        """Run window steps for ``seconds`` or exactly ``count`` of them."""
        service, stream = self.target, self.stream
        tree = service.index.tree
        deadline = time.perf_counter() + seconds
        step = 0
        while (step < count) if count else (time.perf_counter() < deadline):
            oid, vector, attr = stream.insert()
            if rec.call(rec.insert_s, "insert", service.insert, oid, vector, attr)[0]:
                stream.inserted(oid, vector, attr)
            if 2 * (tree.invalid_count + 1) > tree.node_count:
                # The next delete triggers the global rebuild: this is the
                # largest the index gets in a cycle.
                rec.index_bytes.append(total_index_bytes(service))
            rec.call(rec.delete_s, "delete", service.delete, stream.delete())
            if step % self.query_every == 0:
                request = stream.query()
                rec.call(rec.query_s, "query", service.query,
                         request.vector, request.lo, request.hi, K)
            step += 1
        return step

    def drive(self, seconds: float, rec: Recorder) -> None:
        rec.index_bytes.append(total_index_bytes(self.target))
        self.steps(Recorder(), seconds=min(1.5, 0.15 * seconds))
        gc.collect()
        tree = self.target.index.tree
        rebuilds = tree.rebuild_count
        rec.notes["steps"] = self.steps(rec, seconds=seconds)
        rec.notes["tree_rebuilds"] = tree.rebuild_count - rebuilds
        rec.notes["global_rebuild_cycles"] = len(rec.index_bytes) - 1
        # A snapshot, then a WAL tail: the recovery check must replay both.
        self.target.snapshot()
        self.steps(Recorder(), count=self.base.profile.recovery_tail_steps)

    def choose_probes(self) -> list[Request]:
        newest = self.stream.query()
        return [
            Request(vector, newest.lo, newest.hi)
            for vector in self.base.data.queries[: self.base.profile.probes]
        ]

    def check_equivalent(self, answers, check: Check) -> None:
        self.target.close()
        self.target = IndexService.recover(self.scratch / "wal", **self.service_options)
        check.that(
            "recovered_equals_live",
            len(self.target) == self.base.profile.window
            and all(
                a is not None and same_answer(a, self.target.query(p.vector, p.lo, p.hi, K))
                for p, a in zip(self.probes, answers)
            ),
        )


class ServeMixed(Driver):
    """The full network path: client, TCP, front door, WAL-backed service.

    Phase A (65 % of ``seconds``) is open loop: requests are due on a
    seeded Poisson schedule at ``Profile.rate_ops_s`` regardless of
    completions, and every latency is timed from the due time.  Phase B
    (35 %) is closed loop with ``CLOSED_LOOP_DEPTH`` requests outstanding
    on the same connection; it gives the throughput metrics.  Client and
    server share one event loop in this process.

    The rate is a quarter of the closed-loop capacity measured on the seed
    host (370-460 ops/s), not half: at half, queueing turned a 15 % slower
    host into 39 % higher latency, and no bound could tell that from a
    regression.
    """

    open_share = 0.65

    def build_target(self):
        return IndexService(
            self.base.build(self.stream.rows), wal_dir=self.scratch / "wal", fsync=False
        )

    def drive(self, seconds: float, rec: Recorder) -> None:
        asyncio.run(self._serve(seconds, rec))

    async def _serve(self, seconds: float, rec: Recorder) -> None:
        profile = self.base.profile
        started = time.perf_counter()
        server = FrontendServer(
            self.target,
            tenants=[TenantConfig(name) for name in TENANTS],
            executor_threads=profile.executor_threads,
        )
        host, port = await server.start()
        client = await FrontendClient.connect(host, port)
        rec.notes["front_door_start_s"] = time.perf_counter() - started
        try:
            wire = WireDriver(client, self.stream, rec.outcomes)
            rec.index_bytes.append(total_index_bytes(self.target))
            await wire.closed_loop(min(1.5, 0.15 * seconds))
            gc.collect()
            log = await wire.open_loop(profile.rate_ops_s, self.open_share * seconds)
            rec.query_s = log.latency_s.get("query", [])
            rec.insert_s = log.latency_s.get("insert", [])
            rec.delete_s = log.latency_s.get("delete", [])
            rec.notes["generator_late_p99_ms"] = summarize_ms(log.late_s)["p99"]
            done, wall = await wire.closed_loop((1.0 - self.open_share) * seconds)
            rec.query_qps = done["query"] / wall
            rec.write_ops_s = (done["insert"] + done["delete"]) / wall
            rec.notes["closed_loop_ops_s"] = sum(done.values()) / wall
            # The stream has quiesced (every request above was awaited).
            self.wire_probes = self.stream.queries(profile.probes)
            self.wire_answers = [
                await wire.query(request, TENANTS[i % 2])
                for i, request in enumerate(self.wire_probes)
            ]
            rec.notes["front_door"] = {
                key: value for key, value in server.stats().items() if key != "tenants"
            }
        finally:
            await client.close()
            await server.stop()

    def choose_probes(self) -> list[Request]:
        return self.wire_probes

    def check_equivalent(self, answers, check: Check) -> None:
        check.that(
            "wire_equals_direct",
            all(
                a is not None and w is not None
                and w["ids"] == a.ids.tolist() and w["distances"] == a.distances.tolist()
                for a, w in zip(answers, self.wire_answers)
            ),
        )


class WireDriver:
    """Sends one ``OpStream``'s operations over a front-door connection."""

    def __init__(self, client: FrontendClient, stream: OpStream, outcomes: Outcomes):
        self.client = client
        self.stream = stream
        self.outcomes = outcomes
        self.sent = 0

    def next_kind(self) -> str:
        """query / insert / delete at the mix's write share (2:1 inserts)."""
        draw = self.stream.rng.random()
        writes = self.stream.mix.write_share
        if draw >= writes:
            return "query"
        return "insert" if draw < writes * 2.0 / 3.0 else "delete"

    async def query(self, request: Request, tenant: str):
        """One query; ``None`` (and a counted failure) if it did not succeed."""
        return await self._send(
            self.client.query(request.vector, request.lo, request.hi, K,
                              tenant=tenant, deadline_ms=DEADLINE_MS)
        )

    async def _send(self, call):
        self.outcomes.attempt()
        try:
            return await call
        except TimeoutError as error:
            self.outcomes.fail("shed", str(error))
        except AdmissionError as error:
            self.outcomes.fail("refused", str(error))
        except Exception:  # outcome barrier: any failure is a counted outcome
            self.outcomes.fail("error", traceback.format_exc(limit=3))
        return None

    async def one(self, kind: str) -> bool:
        """Send one operation of ``kind``; True when it was acknowledged."""
        stream = self.stream
        tenant = TENANTS[self.sent % 2]
        self.sent += 1
        if kind == "query":
            return await self.query(stream.query(), tenant) is not None
        if kind == "insert":
            oid, vector, attr = stream.insert()
            ok = await self._send(
                self.client.insert(oid, vector, attr, tenant=tenant, deadline_ms=DEADLINE_MS)
            ) is not None
            if ok:
                stream.inserted(oid, vector, attr)
            return ok
        return await self._send(
            self.client.delete(stream.delete(), tenant=tenant, deadline_ms=DEADLINE_MS)
        ) is not None

    async def open_loop(self, rate: float, seconds: float) -> OpenLoopLog:
        """Poisson arrivals at ``rate`` per second for ``seconds``."""
        loop = asyncio.get_running_loop()
        log = OpenLoopLog()
        rng = self.stream.rng
        tasks = []

        async def timed(kind: str, due: float) -> None:
            if await self.one(kind):
                log.done(kind, due, loop.time())

        start = loop.time()
        due = start
        while True:
            due += float(rng.exponential(1.0 / rate))
            if due - start > seconds:
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            log.sent(due, loop.time())
            tasks.append(asyncio.ensure_future(timed(self.next_kind(), due)))
        await asyncio.gather(*tasks)
        return log

    async def closed_loop(self, seconds: float) -> tuple[dict, float]:
        """``CLOSED_LOOP_DEPTH`` requests outstanding for ``seconds``.

        Returns the completions of each kind and the phase's wall time.
        """
        loop = asyncio.get_running_loop()
        done = {"query": 0, "insert": 0, "delete": 0}
        start = loop.time()

        async def worker() -> None:
            while loop.time() - start < seconds:
                kind = self.next_kind()
                if await self.one(kind):
                    done[kind] += 1

        await asyncio.gather(*(worker() for _ in range(CLOSED_LOOP_DEPTH)))
        return done, loop.time() - start


# ----------------------------------------------------------------------
# The registry (names are fixed: later issues cite them)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: Mix
    driver: type

    def make(self):
        return self.driver(self.mix)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "query_narrow",
            "1-5% ranges on a bare RangePQ: center ranking, ADC table and scan "
            "dominate and the tree does little; writes land at random attributes",
            Mix((0.01, 0.05), "uniform", "random", 0.10, 0.0),
            InProcess,
        ),
        Workload(
            "query_wide",
            "40-80% ranges on a bare RangePQ: tree decomposition and per-cluster "
            "drain dominate, so a kernel-only change predicts no change here",
            Mix((0.40, 0.80), "uniform", "random", 0.10, 0.0),
            InProcess,
        ),
        Workload(
            "churn_window",
            "sliding window through a WAL-backed service: right-spine inserts, "
            "lazy deletes and the 2*inv>size global rebuild are paid inline",
            Mix((0.10, 0.10), "window_tail", "window", 8.0 / 9.0, 0.0),
            ChurnWindow,
        ),
        Workload(
            "scatter_wide",
            "query_wide's requests through the 4-shard router: its ratio to "
            "query_wide is the scatter and merge overhead",
            Mix((0.40, 0.80), "uniform", "random", 0.10, 0.0),
            ScatterWide,
        ),
        Workload(
            "serve_mixed",
            "70/20/10 query/insert/delete over TCP at a fixed rate, half the "
            "queries repeated: framing, fair queue, batcher, table cache, RW lock",
            Mix((0.01, 0.20), "uniform", "random", 0.30, 0.5),
            ServeMixed,
        ),
    )
}
