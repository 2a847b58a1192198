"""The asyncio TCP front door over the thread-based serving core.

:class:`FrontendServer` multiplexes any number of client connections onto
one :class:`~repro.service.engine.IndexService` (or anything with its
surface) without ever blocking the event loop:

* **Transport** — length-prefixed JSON frames
  (:mod:`repro.frontend.protocol`); each connection pipelines requests
  (every frame spawns a task; responses are serialized per connection).
* **Tenancy** — requests are queued per tenant with quota bounds and
  dequeued in weighted fair order
  (:class:`~repro.frontend.tenancy.FairShareScheduler`).
* **Batching** — queued queries coalesce for one adaptive tick
  (:class:`~repro.frontend.batcher.MicroBatcher`) and execute as a group
  through ``service.query_batch`` — bitwise identical to per-request
  calls.
* **Admission** — execution concurrency is bounded by an
  :class:`~repro.service.admission.AdmissionController`; the event loop
  only ever calls its non-blocking ``try_admit`` and parks on an asyncio
  event until a slot frees, with the wait recorded in the
  ``service.admission.wait_ms`` histogram.
* **Deadlines** — client ``deadline_ms`` values become
  :class:`~repro.frontend.deadlines.Deadline` objects enforced at
  arrival, at batch assembly, and at completion; services whose ``query``
  accepts ``timeout_s`` (the sharded router's worker-pool path) get the
  remaining budget propagated as the per-task timeout, and a
  ``query_batch`` that accepts it gets the group's minimum budget.
* **Graceful drain** — :meth:`stop` closes the listener, answers queued
  work, then closes connections; nothing admitted is dropped.

Blocking service calls run on a bounded thread executor via
``loop.run_in_executor``; lint rule R011 keeps blocking primitives out of
the coroutine bodies in this package.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np

from ..obs import counter, histogram
from ..service.admission import AdmissionController, AdmissionError
from .batcher import BATCH_EXEC_MS, BatchWindowPolicy, MicroBatcher
from .deadlines import Deadline
from .protocol import (
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
    validate_request,
)
from .tenancy import FairShareScheduler, QuotaExceeded, TenantConfig

__all__ = ["FrontendServer", "main"]

_REQUESTS = counter("frontend.requests")
_ERRORS = counter("frontend.error_responses")
_REQUEST_MS = histogram("frontend.request_ms")
#: Shared with AdmissionController.admit: queue wait before an execution
#: slot, whichever plane (thread or asyncio) did the waiting.
_ADM_WAIT_MS = histogram("service.admission.wait_ms")

#: How long the slot-wait parks before re-polling try_admit (safety net
#: against a missed wakeup; releases normally set the event directly).
_SLOT_POLL_S = 0.05


class _Request:
    """One queued request: wire payload + deadline + completion future."""

    __slots__ = ("kind", "payload", "deadline", "future")

    def __init__(self, payload: dict, deadline: Deadline | None, future) -> None:
        self.kind = payload["type"]
        self.payload = payload
        self.deadline = deadline
        self.future = future


class FrontendServer:
    """Asyncio multi-tenant front door over one service.

    Args:
        service: Anything with the :class:`IndexService` surface
            (``query``/``insert``/``delete``; ``query_batch`` is used for
            micro-batching when present, per-request ``query`` otherwise).
        host, port: Bind address; port 0 picks an ephemeral port
            (:attr:`port` holds the real one after :meth:`start`).
        tenants: Optional pre-registered :class:`TenantConfig` policies;
            unknown tenants auto-register with weight
            ``default_tenant_weight``.
        default_tenant_weight: Weight for auto-registered tenants.
        default_tenant_max_queue: Queue quota for auto-registered tenants.
        admission: Execution-slot controller; defaults to one bounding
            in-flight executor work at ``executor_threads``.
        executor_threads: Thread count for blocking service calls.
        max_batch: Largest coalesced query batch.
        window_policy: Batching-tick policy; defaults to the adaptive
            p99-derived window (pass
            :meth:`BatchWindowPolicy.disabled` for the unbatched
            per-request path).
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Iterable[TenantConfig] | None = None,
        default_tenant_weight: float = 1.0,
        default_tenant_max_queue: int = 256,
        admission: AdmissionController | None = None,
        executor_threads: int = 4,
        max_batch: int = 64,
        window_policy: BatchWindowPolicy | None = None,
    ) -> None:
        if executor_threads < 1:
            raise ValueError(
                f"executor_threads must be >= 1, got {executor_threads}"
            )
        self._service = service
        self.host = host
        self.port = port
        self._executor_threads = executor_threads
        self._admission = admission or AdmissionController(
            max_concurrent=executor_threads, max_queue=0
        )
        self._scheduler = FairShareScheduler(
            tenants,
            default_weight=default_tenant_weight,
            default_max_queue=default_tenant_max_queue,
        )
        self._batcher = MicroBatcher(
            self._scheduler,
            self._execute,
            shed=self._shed_expired,
            policy=window_policy,
            max_batch=max_batch,
        )
        self._has_query_batch = hasattr(service, "query_batch")
        self._query_accepts_timeout = self._accepts_timeout(
            getattr(service, "query", None)
        )
        self._batch_accepts_timeout = self._has_query_batch and (
            self._accepts_timeout(service.query_batch)
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._batcher_task: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._slot_event = asyncio.Event()
        self._draining = False

    @staticmethod
    def _accepts_timeout(call) -> bool:
        import inspect

        if call is None:
            return False
        try:
            signature = inspect.signature(call)
        except (TypeError, ValueError):
            return False
        return "timeout_s" in signature.parameters

    @property
    def scheduler(self) -> FairShareScheduler:
        """The tenant scheduler (stats / policy introspection)."""
        return self._scheduler

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher (batch-size stats)."""
        return self._batcher

    @property
    def admission(self) -> AdmissionController:
        """The execution-slot controller."""
        return self._admission

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_threads,
            thread_name_prefix="repro-frontend",
        )
        self._batcher_task = self._loop.create_task(self._batcher.run())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Graceful drain: refuse new work, answer queued work, close.

        New requests on existing connections get ``SHUTTING_DOWN``;
        everything already queued is executed (or shed at its deadline)
        and answered before connections close.  Idempotent.
        """
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        self._batcher.request_stop()
        if self._batcher_task is not None:
            await self._batcher_task
            self._batcher_task = None
        # Belt-and-braces: fail anything that slipped into the queues
        # after the batcher drained (cannot normally happen — enqueue and
        # the draining check share one event-loop step).
        while True:
            taken = self._scheduler.take_one()
            if taken is None:
                break
            tenant, request = taken
            self._finish(
                tenant,
                request,
                error_response(
                    request.payload["id"], "SHUTTING_DOWN", "server stopped"
                ),
                outcome="failed",
            )
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        # Hang up on still-connected clients: cancel every connection
        # handler (they exit quietly) and close its transport.  This must
        # precede Server.wait_closed(), which since CPython 3.12.1
        # (gh-79033) also waits for the per-connection handlers — awaiting
        # it with clients still connected would deadlock the drain.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        self._conn_tasks.clear()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        await self._server.wait_closed()
        # Requests that raced in after the gather above were answered
        # SHUTTING_DOWN (or had their writes dropped on the closed
        # transport); reap their tasks — no new ones can spawn now.
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._server = None

    def stats(self) -> dict:
        """Server / tenant / admission counters (the ``stats`` reply)."""
        return {
            "draining": self._draining,
            "batches": self._batcher.batches,
            "batched_requests": self._batcher.batched_requests,
            "mean_batch_size": self._batcher.mean_batch_size,
            "shed_expired": self._batcher.shed_expired,
            "admission": {
                "admitted": self._admission.stats.admitted,
                "rejected": self._admission.stats.rejected,
                "active": self._admission.active,
            },
            "service_version": getattr(self._service, "version", None),
            "tenants": self._scheduler.snapshot(),
        }

    # ------------------------------------------------------------------
    # Connection plane
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        send_lock = asyncio.Lock()
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ProtocolError as error:
                    # Framing is lost; answer once and hang up.
                    await self._send(
                        writer,
                        send_lock,
                        error_response(None, error.code, str(error)),
                    )
                    break
                if message is None:
                    break
                task = asyncio.ensure_future(
                    self._serve_request(message, writer, send_lock)
                )
                self._track(task)
        except asyncio.CancelledError:
            pass  # stop() hung up on us; exit without teardown noise
        except (ConnectionError, OSError):
            pass  # client went away mid-read; nothing to answer
        finally:
            self._conn_tasks.discard(task)
            self._writers.discard(writer)
            writer.close()

    async def _serve_request(self, message, writer, send_lock) -> None:
        arrival = time.monotonic()
        _REQUESTS.inc()
        try:
            request_payload = validate_request(message)
        except ProtocolError as error:
            raw_id = message.get("id")
            request_id = raw_id if isinstance(raw_id, int) else None
            await self._respond(
                writer,
                send_lock,
                error_response(request_id, error.code, str(error)),
            )
            return
        request_id = request_payload["id"]
        if request_payload["type"] == "stats":
            await self._respond(
                writer, send_lock, ok_response(request_id, self.stats())
            )
            return
        if self._draining:
            await self._respond(
                writer,
                send_lock,
                error_response(request_id, "SHUTTING_DOWN", "server is draining"),
            )
            return
        tenant = request_payload["tenant"]
        deadline = Deadline.from_ms(request_payload["deadline_ms"])
        if deadline is not None and deadline.expired:
            self._note_outcome(tenant, "deadline_exceeded")
            await self._respond(
                writer,
                send_lock,
                error_response(
                    request_id, "DEADLINE_EXCEEDED", "deadline expired on arrival"
                ),
            )
            return
        request = _Request(
            request_payload, deadline, self._loop.create_future()
        )
        try:
            self._scheduler.enqueue(tenant, request)
        except QuotaExceeded as error:
            await self._respond(
                writer,
                send_lock,
                error_response(request_id, "OVER_QUOTA", str(error)),
            )
            return
        self._batcher.notify()
        response = await request.future
        _REQUEST_MS.observe((time.monotonic() - arrival) * 1000.0)
        await self._respond(writer, send_lock, response)

    async def _respond(self, writer, send_lock, response: dict) -> None:
        if not response.get("ok", False):
            _ERRORS.inc()
        await self._send(writer, send_lock, response)

    async def _send(self, writer, send_lock, message: dict) -> None:
        frame = encode_frame(message)
        try:
            async with send_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; the outcome was already accounted

    # ------------------------------------------------------------------
    # Execution plane
    # ------------------------------------------------------------------
    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _shed_expired(self, tenant: str, request: _Request) -> None:
        """Batcher callback: a queued request's deadline expired."""
        self._finish(
            tenant,
            request,
            error_response(
                request.payload["id"],
                "DEADLINE_EXCEEDED",
                "deadline expired while queued",
            ),
            outcome="deadline_exceeded",
        )

    async def _execute(self, batch: list[tuple[str, _Request]]) -> None:
        """Batcher callback: dispatch one fair-ordered batch.

        Returns as soon as the work is scheduled so the tick loop keeps
        coalescing while execution runs on admission-bounded tasks.
        """
        queries = [(t, r) for t, r in batch if r.kind == "query"]
        for tenant, request in batch:
            if request.kind != "query":
                self._track(
                    self._loop.create_task(self._run_write(tenant, request))
                )
        if queries:
            self._track(
                self._loop.create_task(self._run_query_batch(queries))
            )

    async def _acquire_slot(self, kind: str):
        """Non-blocking admission poll; parks on the release event."""
        started = time.monotonic()
        while True:
            slot = self._admission.try_admit(kind)
            if slot is not None:
                _ADM_WAIT_MS.observe((time.monotonic() - started) * 1000.0)
                return slot
            self._slot_event.clear()
            try:
                await asyncio.wait_for(
                    self._slot_event.wait(), timeout=_SLOT_POLL_S
                )
            except TimeoutError:
                pass
            except asyncio.TimeoutError:  # pre-3.11 alias  # pragma: no cover
                pass

    def _release_slot(self, slot) -> None:
        slot.__exit__(None, None, None)
        self._slot_event.set()

    async def _run_query_batch(self, queries: list[tuple[str, _Request]]) -> None:
        slot = await self._acquire_slot("read")
        try:
            live: list[tuple[str, _Request]] = []
            for tenant, request in queries:
                if request.deadline is not None and request.deadline.expired:
                    self._batcher.note_shed(tenant, request)
                else:
                    live.append((tenant, request))
            if not live:
                return
            started = time.monotonic()
            outcomes = await self._loop.run_in_executor(
                self._executor,
                self._query_batch_sync,
                [request for _, request in live],
            )
            BATCH_EXEC_MS.observe((time.monotonic() - started) * 1000.0)
            for (tenant, request), (status, value) in zip(live, outcomes):
                if status == "error":
                    self._finish_error(tenant, request, value)
                elif request.deadline is not None and request.deadline.expired:
                    self._finish(
                        tenant,
                        request,
                        error_response(
                            request.payload["id"],
                            "DEADLINE_EXCEEDED",
                            "result ready after the deadline",
                        ),
                        outcome="deadline_exceeded",
                    )
                else:
                    self._finish(
                        tenant,
                        request,
                        ok_response(request.payload["id"], value),
                        outcome="completed",
                    )
        finally:
            self._release_slot(slot)

    def _query_batch_sync(self, requests: list[_Request]) -> list:
        """Executor thread: answer a query group, one service call per
        ``(k, l_budget)`` parameter class.

        When the service's ``query_batch`` accepts ``timeout_s``, the
        minimum remaining budget across the group's deadlines is passed
        so a coalesced batch cannot occupy workers past every member's
        deadline.  Services without that parameter run the batch to
        completion; expiry is then only detected at completion (the
        per-request ``query`` path propagates budgets individually).
        """
        outcomes: list = [None] * len(requests)
        groups: dict[tuple[int, int | None], list[int]] = {}
        for position, request in enumerate(requests):
            key = (request.payload["k"], request.payload["l_budget"])
            groups.setdefault(key, []).append(position)
        for (k, l_budget), positions in groups.items():
            if self._has_query_batch and len(positions) > 1:
                vectors = np.asarray(
                    [requests[i].payload["vector"] for i in positions],
                    dtype=np.float64,
                )
                ranges = [
                    (requests[i].payload["lo"], requests[i].payload["hi"])
                    for i in positions
                ]
                kwargs: dict = {"l_budget": l_budget}
                if self._batch_accepts_timeout:
                    budgets = [
                        requests[i].deadline.remaining_s()
                        for i in positions
                        if requests[i].deadline is not None
                    ]
                    if budgets:
                        kwargs["timeout_s"] = max(min(budgets), 0.0)
                try:
                    batch_result = self._service.query_batch(
                        vectors, ranges, k, **kwargs
                    )
                except BaseException as error:  # repro: noqa-R004 — per-request fault barrier: marshalled to each caller
                    for position in positions:
                        outcomes[position] = ("error", error)
                    continue
                for position, result in zip(positions, batch_result.results):
                    outcomes[position] = (
                        "ok",
                        {
                            "ids": result.ids.tolist(),
                            "distances": result.distances.tolist(),
                        },
                    )
            else:
                for position in positions:
                    outcomes[position] = self._query_one_sync(
                        requests[position], k, l_budget
                    )
        return outcomes

    def _query_one_sync(self, request: _Request, k: int, l_budget):
        payload = request.payload
        kwargs: dict = {"l_budget": l_budget}
        if self._query_accepts_timeout and request.deadline is not None:
            kwargs["timeout_s"] = max(request.deadline.remaining_s(), 0.0)
        try:
            result = self._service.query(
                np.asarray(payload["vector"], dtype=np.float64),
                payload["lo"],
                payload["hi"],
                k,
                **kwargs,
            )
        except BaseException as error:  # repro: noqa-R004 — per-request fault barrier: marshalled to the caller
            return ("error", error)
        return (
            "ok",
            {"ids": result.ids.tolist(), "distances": result.distances.tolist()},
        )

    async def _run_write(self, tenant: str, request: _Request) -> None:
        slot = await self._acquire_slot("write")
        try:
            if request.deadline is not None and request.deadline.expired:
                self._batcher.note_shed(tenant, request)
                return
            try:
                await self._loop.run_in_executor(
                    self._executor, self._write_sync, request
                )
            except BaseException as error:  # repro: noqa-R004 — per-request fault barrier: marshalled to the caller
                self._finish_error(tenant, request, error)
                return
            self._finish(
                tenant,
                request,
                ok_response(
                    request.payload["id"],
                    {
                        "applied": True,
                        "version": getattr(self._service, "version", None),
                    },
                ),
                outcome="completed",
            )
        finally:
            self._release_slot(slot)

    def _write_sync(self, request: _Request) -> None:
        payload = request.payload
        if request.kind == "insert":
            self._service.insert(
                payload["oid"],
                np.asarray(payload["vector"], dtype=np.float64),
                payload["attr"],
            )
        else:
            self._service.delete(payload["oid"])

    # ------------------------------------------------------------------
    # Outcome bookkeeping
    # ------------------------------------------------------------------
    def _finish(
        self, tenant: str, request: _Request, response: dict, *, outcome: str
    ) -> None:
        self._note_outcome(tenant, outcome)
        if not request.future.done():
            request.future.set_result(response)

    def _finish_error(self, tenant: str, request: _Request, error) -> None:
        request_id = request.payload["id"]
        if isinstance(error, TimeoutError) or (
            getattr(error, "code", None) == "DEADLINE_EXCEEDED"
        ):
            response = error_response(
                request_id, "DEADLINE_EXCEEDED", str(error) or "deadline exceeded"
            )
            outcome = "deadline_exceeded"
        elif isinstance(error, AdmissionError):
            response = error_response(request_id, "ADMISSION_REJECTED", str(error))
            outcome = "rejected_admission"
        elif isinstance(error, (ValueError, KeyError)):
            response = error_response(request_id, "BAD_REQUEST", str(error))
            outcome = "failed"
        else:
            response = error_response(
                request_id, "INTERNAL", f"{type(error).__name__}: {error}"
            )
            outcome = "failed"
        self._finish(tenant, request, response, outcome=outcome)

    def _note_outcome(self, tenant: str, outcome: str) -> None:
        try:
            stats = self._scheduler.touch(tenant)
        except KeyError:  # auto-register off and the tenant is unknown
            return
        setattr(stats, outcome, getattr(stats, outcome) + 1)


def main(argv=None) -> int:
    """``python -m repro serve``: run a front door over a built-in index."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve a freshly built RangePQ+ index over the asyncio front "
            "door (length-prefixed JSON protocol; see docs/serving.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8753)
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--tenants",
        default="",
        help="comma-separated name:weight pairs, e.g. 'free:1,paid:4'",
    )
    parser.add_argument(
        "--no-batching",
        action="store_true",
        help="dispatch per request (no coalescing tick)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds, then drain (default: forever)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from ..core import AdaptiveLPolicy, RangePQPlus
    from ..datasets import load_workload
    from ..eval.harness import scaled_l_base
    from ..service.engine import IndexService
    from ..service.maintenance import MaintenanceDaemon

    tenants = []
    if args.tenants:
        for pair in args.tenants.split(","):
            name, _, weight = pair.partition(":")
            tenants.append(
                TenantConfig(name=name.strip(), weight=float(weight or 1.0))
            )
    workload = load_workload(
        "sift", n=args.n, d=args.dim, num_queries=8, seed=args.seed
    )
    index = RangePQPlus.build(
        workload.vectors,
        workload.attrs,
        seed=args.seed,
        l_policy=AdaptiveLPolicy(
            l_base=scaled_l_base("sift", args.n), r_base=0.10
        ),
    )
    service = IndexService(index, defer_maintenance=True)

    async def _serve() -> None:
        server = FrontendServer(
            service,
            host=args.host,
            port=args.port,
            tenants=tenants,
            executor_threads=args.threads,
            max_batch=args.max_batch,
            window_policy=(
                BatchWindowPolicy.disabled() if args.no_batching else None
            ),
        )
        host, port = await server.start()
        print(f"serving n={args.n} d={args.dim} on {host}:{port}")
        try:
            if args.duration is None:
                await asyncio.Event().wait()
            else:
                await asyncio.sleep(args.duration)
        finally:
            await server.stop()

    with MaintenanceDaemon(service, interval_s=0.1):
        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("draining")
    return 0
