"""The traced run: one workload's request mix pushed through every layer.

The untraced run of a workload times the path its requests take.  The
traced run answers a different question with the same seeded requests:
*where does the time go in each layer of the stack under this mix?*  It
builds every layer once (bare index, RangePQ+, WAL-backed service,
4-shard router, tiered read path, front door) and drives each through its
public functions with a span around every call, so all per-layer metrics
exist on every workload and a layer that a workload's own path skips can
still be compared across mixes.

Request counts are fixed (scaled by ``--seconds``), not time-boxed, so the
counts a layer reports repeat exactly for a seed.  The replay of a query
through the public pieces that ``RangePQ.query`` composes is checked to
return bitwise the same answer, so the split is of the same work.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.core import RangePQPlus
from repro.frontend.client import FrontendClient
from repro.frontend.protocol import decode_frame, encode_frame, ok_response
from repro.frontend.server import FrontendServer
from repro.frontend.tenancy import TenantConfig
from repro.service.engine import IndexService
from repro.service.router import merge_topk
from repro.service.wal import WAL_NAME, WriteAheadLog
from repro.tree import RangeTree, cover_cluster_ids, decompose
from repro.tree.augmented import cover_take_cluster

from stats import Outcomes, percentile
from trace import NullTracer, Tracer
from workloads import (
    DEADLINE_MS,
    K,
    TENANTS,
    Base,
    Check,
    OpStream,
    Profile,
    Request,
    WireDriver,
    Workload,
    every_shard_on,
    same_answer,
)

#: Requests per probe at ``--seconds 12``; other lengths scale them.
COUNTS = {
    "core": 160, "plus": 160, "batch_blocks": 4, "engine": 100, "router": 64,
    "tier": 64, "writes": 600, "frontend": 100,
}
BATCH_BLOCK = 32
#: Seconds of the open-loop front-door phase at ``--seconds 12``.
OPEN_LOOP_S = 3.0
#: The public pieces ``RangePQ.query`` composes, in order.
PIECES = ("tree.decompose", "ivf.center_rank", "ivf.table", "tree.drain",
          "ivf.adc", "kernels.topk")


def median_ms(seconds) -> float:
    return statistics.median(seconds) * 1000.0


def replay_query(tracer: Tracer, index, request: Request, l_budget: int, rid: int):
    """Answer ``request`` through the public pieces ``RangePQ.query`` composes.

    Returns ``(ids, distances, clusters_probed)``; one span per piece, all
    under a ``core.replay`` span.
    """
    tree, ivf = index.tree, index.ivf
    with tracer.span("core.replay", rid):
        with tracer.span("tree.decompose", rid):
            cover = decompose(tree, request.lo, request.hi)
            clusters = sorted(cover_cluster_ids(cover))
        query = np.asarray(request.vector, dtype=np.float64)
        with tracer.span("ivf.center_rank", rid):
            ranked = np.asarray(clusters, dtype=np.int64)
            center = ivf.center_distances(query)
            ranked = ranked[np.argsort(center[ranked], kind="stable")]
        with tracer.span("ivf.table", rid):
            table = ivf.distance_table(query)
        with tracer.span("tree.drain", rid):
            remaining = l_budget
            collected: list[int] = []
            probed = 0
            for cluster in ranked:
                probed += 1
                batch = cover_take_cluster(cover, int(cluster), remaining)
                if not batch:
                    continue
                collected.extend(batch)
                remaining -= len(batch)
                if remaining <= 0:
                    break
        with tracer.span("ivf.adc", rid):
            ids = np.asarray(collected, dtype=np.int64)
            distances = ivf.adc_for_ids(table, collected)
        with tracer.span("kernels.topk", rid):
            order = kernels.topk_order(distances, K)
    return ids[order], distances[order], probed


class LayerProbe:
    """Builds the whole stack for one workload's mix and measures each layer."""

    def __init__(self, workload: Workload, profile: Profile, seed: int,
                 seconds: float, scratch: Path) -> None:
        self.workload = workload
        self.profile = profile
        self.scratch = scratch
        self.scale = seconds / 12.0
        self.tracer = Tracer()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.check = Check()
        self.outcomes = Outcomes()
        self.rid = 0
        self.seed = seed

    def count(self, name: str, floor: int = 8) -> int:
        return max(floor, int(round(COUNTS[name] * self.scale)))

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def next_rid(self) -> int:
        """Id of the next request this probe issues (each counts as attempted)."""
        self.outcomes.attempt()
        self.rid += 1
        return self.rid

    # ------------------------------------------------------------------
    def run(self) -> None:
        self.build()
        try:
            self.probe_core()
            self.probe_plus_and_batch()
            self.probe_engine()
            self.probe_router_and_tiers()
            self.probe_writes()
            asyncio.run(self.probe_frontend())
        finally:
            self.service.close()
            self.router.close()

    def build(self) -> None:
        profile = self.profile
        base = self.base = Base(profile, self.seed)
        self.put("datasets.generate_s", base.generate_s, "s")
        self.put("ivf.train_s", base.train_s, "s")
        stream = self.stream = OpStream(base, self.workload.mix)
        started = time.perf_counter()
        self.index = base.build(stream.rows)
        self.put("core.build_s", time.perf_counter() - started, "s")
        started = time.perf_counter()
        self.plus = base.build(stream.rows, RangePQPlus)
        self.put("core.plus_build_s", time.perf_counter() - started, "s")
        self.wal_dir = self.scratch / "wal"
        # Rebuild debt is paid inline where the workload's own service does.
        self.service = IndexService(
            self.index, wal_dir=self.wal_dir, fsync=False,
            defer_maintenance=self.workload.mix.writes != "window",
        )
        self.router = base.build_router(stream.rows)
        # A bare substrate and tree kept in lockstep with the service, so
        # the two layers under ``RangePQ.insert``/``delete`` can be timed
        # on their own with the same operations.
        rows = stream.rows
        self.shadow_ivf = base.substrate.clone_empty()
        clusters = self.shadow_ivf.add([int(r) for r in rows], base.data.vectors[rows])
        self.shadow_tree = RangeTree(alpha=0.2)
        self.shadow_tree.build(
            (float(base.data.attrs[row]), int(row), int(cluster))
            for row, cluster in zip(rows, clusters)
        )
        self.shadow_attr = dict(stream.attr_of)
        self.requests = stream.queries(max(COUNTS.values()) * 2)

    # ------------------------------------------------------------------
    def probe_core(self) -> None:
        """``RangePQ.query`` whole, and replayed piece by piece."""
        index, tracer = self.index, self.tracer
        whole, cover_nodes, probed, candidates, l_used = [], [], [], [], []
        untraced, bare_replay = NullTracer(), []
        same = True
        for request in self.requests[: self.count("core")]:
            rid = self.next_rid()
            # Each execution starts from the same (empty) table cache, so
            # the whole query and its replay do the same work.
            index.ivf.clear_caches()
            with tracer.span("core.query", rid) as span:
                answer = index.query(request.vector, request.lo, request.hi, K)
            whole.append(span.seconds)
            stats = answer.stats
            cover_nodes.append(stats.cover_nodes)
            candidates.append(stats.num_candidates)
            l_used.append(stats.l_used)
            if stats.num_in_range == 0:
                continue
            index.ivf.clear_caches()
            ids, distances, clusters = replay_query(
                tracer, index, request, stats.l_used, rid
            )
            probed.append(clusters)
            index.ivf.clear_caches()
            started = time.perf_counter()
            replay_query(untraced, index, request, stats.l_used, rid)
            bare_replay.append(time.perf_counter() - started)
            same = same and np.array_equal(ids, answer.ids) and np.array_equal(
                distances, answer.distances
            )
        self.check.that("replay_equals_query", same)
        self.check.runs("check_invariants", index.check_invariants)
        pieces: dict[int, float] = {}
        for name, start, end, _, rid in tracer.spans:
            if name in PIECES:
                pieces[rid] = pieces.get(rid, 0.0) + (end - start)
        for piece in PIECES:
            self.put(f"{piece}_ms", median_ms(tracer.durations(piece)), "ms")
        self.put("core.query_ms", median_ms(whole), "ms")
        self.put("core.glue_ms", median_ms(
            [end - start - pieces[rid] for name, start, end, _, rid in tracer.spans
             if name == "core.query" and rid in pieces]
        ), "ms")
        # The same replay with and without spans: what recording costs.
        replayed = median_ms(tracer.durations("core.replay"))
        self.put("bench.trace_overhead_pct",
                 100.0 * (replayed - median_ms(bare_replay)) / median_ms(bare_replay), "%")
        self.put("tree.cover_nodes", statistics.median(cover_nodes), "count")
        self.put("core.clusters_probed", statistics.median(probed), "count")
        self.put("core.candidates", statistics.median(candidates), "count")
        self.put("core.l_used", statistics.median(l_used), "count")
        self.put("tree.height", index.tree.height(), "count")

    def probe_plus_and_batch(self) -> None:
        durations = []
        for request in self.requests[: self.count("plus")]:
            self.plus.ivf.clear_caches()
            with self.tracer.span("core.plus_query", self.next_rid()) as span:
                self.plus.query(request.vector, request.lo, request.hi, K)
            durations.append(span.seconds)
        self.put("core.plus_query_ms", median_ms(durations), "ms")
        # One cold cache for the whole batch probe: what the mix repeats
        # is then a hit, as it would be in service.
        self.index.ivf.clear_caches()
        wall, hits, lookups, served = 0.0, 0, 0, 0
        for block in range(self.count("batch_blocks", floor=1)):
            chunk = self.requests[block * BATCH_BLOCK : (block + 1) * BATCH_BLOCK]
            with self.tracer.span("core.batch", self.next_rid()) as span:
                result = self.index.batch_search(
                    np.stack([r.vector for r in chunk]), [(r.lo, r.hi) for r in chunk], K
                )
            wall += span.seconds
            served += len(chunk)
            hits += result.stats.table_cache_hits
            lookups += result.stats.table_cache_hits + result.stats.table_cache_misses
        self.put("core.batch_ms_per_query", 1000.0 * wall / served, "ms")
        self.put("ivf.table_cache_hit_rate", hits / lookups if lookups else 0.0, "ratio")

    def probe_engine(self) -> None:
        """``IndexService.query`` minus the ``index.query`` inside it."""
        extra = []
        for request in self.requests[: self.count("engine")]:
            rid = self.next_rid()
            self.index.ivf.clear_caches()
            with self.tracer.span("service.query", rid) as outer:
                self.service.query(request.vector, request.lo, request.hi, K)
            self.index.ivf.clear_caches()
            with self.tracer.span("core.query", rid) as inner:
                self.index.query(request.vector, request.lo, request.hi, K)
            extra.append(outer.seconds - inner.seconds)
        self.put("service.engine_self_ms", median_ms(extra), "ms")

    def probe_router_and_tiers(self) -> None:
        router, tracer = self.router, self.tracer
        requests = self.requests[: self.count("router")]
        shards = router.shards

        def cold_caches() -> None:
            for shard in shards:
                shard.index.ivf.clear_caches()

        answers, shard_sum, merge, router_self, touched, candidates = [], [], [], [], [], []
        same = True
        for request in requests:
            rid = self.next_rid()
            cold_caches()
            with tracer.span("service.router", rid) as whole:
                answer = router.query(request.vector, request.lo, request.hi, K)
            answers.append(answer)
            cold_caches()
            partials, spent = [], 0.0
            for number in range(router.shard_for_attr(request.lo),
                                router.shard_for_attr(request.hi) + 1):
                with tracer.span("service.shard_query", rid) as span:
                    partials.append(
                        shards[number].query(request.vector, request.lo, request.hi, K)
                    )
                spent += span.seconds
            # Timed on every request, though the router itself skips the
            # merge when one shard answers (and then paid nothing for it).
            with tracer.span("service.merge", rid) as span:
                merged = merge_topk(partials, K)
            paid = span.seconds if len(partials) > 1 else 0.0
            same = same and same_answer(merged, answer)
            shard_sum.append(spent)
            merge.append(span.seconds)
            router_self.append(whole.seconds - spent - paid)
            touched.append(len(partials))
            candidates.append(sum(p.stats.num_candidates for p in partials))
        self.check.that("scatter_replay_equals_router", same)
        self.put("service.shard_query_sum_ms", median_ms(shard_sum), "ms")
        self.put("service.merge_ms", median_ms(merge), "ms")
        self.put("service.router_self_ms", median_ms(router_self), "ms")
        self.put("service.shards_touched", statistics.fmean(touched), "count")
        self.put("service.scatter_candidates", statistics.median(candidates), "count")

        tiered_requests = list(zip(requests, answers))[: self.count("tier")]
        for tier in ("cold", "hot"):
            started = time.perf_counter()
            with every_shard_on(tier, router, self.scratch) as tiered:
                if tier == "cold":
                    self.put("control.tier_place_s", time.perf_counter() - started, "s")
                durations, same = [], True
                for request, answer in tiered_requests:
                    with tracer.span(f"control.tier_{tier}", self.next_rid()) as span:
                        got = tiered.query(request.vector, request.lo, request.hi, K)
                    durations.append(span.seconds)
                    same = same and same_answer(got, answer)
            self.check.that(f"router_equals_tier_{tier}", same)
            self.put(f"control.tier_{tier}_ms", median_ms(durations), "ms")

    # ------------------------------------------------------------------
    def write_op(self, scratch_wal: WriteAheadLog, insert: bool) -> None:
        """One write through the shadow layers, the service, and a scratch WAL."""
        tracer, stream, rid = self.tracer, self.stream, self.next_rid()
        if insert:
            oid, vector, attr = stream.insert()
            with tracer.span("ivf.add", rid):
                cluster = int(self.shadow_ivf.add([oid], vector[None, :])[0])
            with tracer.span("tree.insert", rid):
                self.shadow_tree.insert(attr, oid, cluster)
            with tracer.span("service.insert", rid):
                self.service.insert(oid, vector, attr)
            with tracer.span("service.wal_append", rid):
                scratch_wal.append_insert(oid, attr, vector)
            stream.inserted(oid, vector, attr)
            self.shadow_attr[oid] = attr
        else:
            oid = stream.delete()
            attr = self.shadow_attr.pop(oid)
            with tracer.span("tree.delete", rid):
                self.shadow_tree.delete(attr, oid)
            with tracer.span("ivf.remove", rid):
                self.shadow_ivf.remove([oid])
            with tracer.span("service.delete", rid):
                self.service.delete(oid)

    def probe_writes(self) -> None:
        """The mix's writes: per-layer cost, WAL, snapshot, recovery."""
        tracer = self.tracer
        tree = self.index.tree
        rebuilds, work = tree.rebuild_count, tree.rebuild_work
        log = self.wal_dir / WAL_NAME
        log_bytes = log.stat().st_size
        pairs = self.count("writes")
        first_write_span = len(tracer.spans)
        scratch_wal = WriteAheadLog(self.scratch / "scratch-wal", fsync=False)
        try:
            for _ in range(pairs):
                self.write_op(scratch_wal, insert=True)
                self.write_op(scratch_wal, insert=False)
            self.put("service.wal_bytes_per_op",
                     (log.stat().st_size - log_bytes) / (2 * pairs), "B/op")
            with tracer.span("service.snapshot") as span:
                snapshot = self.service.snapshot()
            self.put("service.snapshot_s", span.seconds, "s")
            self.put("service.snapshot_bytes", snapshot.stat().st_size, "B")
            for _ in range(max(4, pairs // 4)):  # a WAL tail for recovery to replay
                self.write_op(scratch_wal, insert=True)
                self.write_op(scratch_wal, insert=False)
        finally:
            scratch_wal.close()
        self.put("tree.rebuild_count", tree.rebuild_count - rebuilds, "count")
        self.put("tree.rebuild_work", tree.rebuild_work - work, "count")

        by_rid: dict[int, dict[str, float]] = {}
        for name, start, end, _, rid in tracer.spans[first_write_span:]:
            by_rid.setdefault(rid, {})[name] = end - start
        inserts = [spans for spans in by_rid.values() if "service.insert" in spans]
        for layer in ("ivf.add", "tree.insert", "tree.delete", "ivf.remove",
                      "service.wal_append"):
            self.put(f"{layer}_ms", median_ms(tracer.durations(layer)), "ms")
        self.put("service.write_self_ms", median_ms(
            [s["service.insert"] - s["ivf.add"] - s["tree.insert"] for s in inserts]
        ), "ms")
        self.put("tree.stall_max_ms", 1000.0 * max(
            tracer.durations("service.insert") + tracer.durations("service.delete")
        ), "ms")

        probe = self.stream.query()
        before = self.service.query(probe.vector, probe.lo, probe.hi, K)
        self.check.that("live_count", len(self.service) == self.stream.live_count())
        self.service.close()
        with tracer.span("service.recover") as span:
            self.service = IndexService.recover(
                self.wal_dir, fsync=False,
                defer_maintenance=self.workload.mix.writes != "window",
            )
            after = self.service.query(probe.vector, probe.lo, probe.hi, K)
        self.index = self.service.index
        self.put("service.recover_s", span.seconds, "s")
        self.check.that(
            "recovered_equals_live",
            same_answer(before, after) and len(self.service) == self.stream.live_count(),
        )
        self.check.runs("check_invariants_after_writes", self.service.check_invariants)

    # ------------------------------------------------------------------
    async def probe_frontend(self) -> None:
        """Codec, idle round trip, and a short open-loop phase of the mix."""
        profile, tracer, service = self.profile, self.tracer, self.service
        requests = self.requests[: self.count("frontend")]
        server = FrontendServer(
            service,
            tenants=[TenantConfig(name) for name in TENANTS],
            executor_threads=profile.executor_threads,
        )
        host, port = await server.start()
        client = await FrontendClient.connect(host, port)
        try:
            wire = WireDriver(client, self.stream, self.outcomes)
            codec, rtt, direct, same = [], [], [], True
            for i, request in enumerate(requests):
                rid = self.next_rid()
                service.index.ivf.clear_caches()
                with tracer.span("frontend.rtt", rid) as span:
                    over_wire = await wire.query(request, TENANTS[i % 2])
                rtt.append(span.seconds)
                service.index.ivf.clear_caches()
                with tracer.span("service.query", rid) as span:
                    answer = service.query(request.vector, request.lo, request.hi, K)
                direct.append(span.seconds)
                same = same and over_wire is not None and (
                    over_wire["ids"] == answer.ids.tolist()
                    and over_wire["distances"] == answer.distances.tolist()
                )
                message = {
                    "v": 1, "id": i, "type": "query", "tenant": TENANTS[i % 2],
                    "deadline_ms": DEADLINE_MS, "vector": request.vector.tolist(),
                    "lo": request.lo, "hi": request.hi, "k": K, "l_budget": None,
                }
                reply = ok_response(i, over_wire or {})
                with tracer.span("frontend.codec", rid) as span:
                    for payload in (message, reply):
                        decode_frame(encode_frame(payload)[4:])
                codec.append(span.seconds)
            self.check.that("wire_equals_direct", same)
            self.put("frontend.codec_ms", median_ms(codec), "ms")
            self.put("frontend.rtt_idle_ms", median_ms(rtt), "ms")
            self.put("frontend.self_ms", median_ms(
                [r - d - c for r, d, c in zip(rtt, direct, codec)]
            ), "ms")

            reads, batches = service.stats.reads, service.stats.read_batches
            before = server.stats()
            log = await wire.open_loop(
                profile.rate_ops_s, max(1.0, OPEN_LOOP_S * self.scale)
            )
            after = server.stats()
            self.put("frontend.mean_batch_size",
                     (after["batched_requests"] - before["batched_requests"])
                     / max(1, after["batches"] - before["batches"]), "count")
            self.put("frontend.shed_expired",
                     after["shed_expired"] - before["shed_expired"], "count")
            self.put("frontend.admission_rejected",
                     after["admission"]["rejected"] - before["admission"]["rejected"],
                     "count")
            self.put("service.reads_per_batch",
                     (service.stats.reads - reads)
                     / max(1, service.stats.read_batches - batches), "count")
            self.put("bench.gen_late_p99_ms",
                     percentile(np.asarray(log.late_s) * 1000.0, 99), "ms")
        finally:
            await client.close()
            await server.stop()
