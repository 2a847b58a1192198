"""Deadline-aware micro-batching: the front door's coalescing tick.

A group of queries handed to ``IndexService.query_batch`` costs one
executor hop and one read-lock hold instead of one each, and its answers
are the serial ones (inside the engine every member still runs its own
``index.query``).  The micro-batcher holds arriving queries for one short
*tick* so they coalesce, then hands the group to an executor in one call.

The tick length is **p99-aware**: :class:`BatchWindowPolicy` derives the
window from the observed batch-execution latency histogram
(``frontend.batch_exec_ms`` in :mod:`repro.obs`) as ``fraction × p99``,
clamped to ``[floor_ms, cap_ms]``.  While an execution runs for ~p99 ms,
arrivals pile up naturally; the explicit window only adds enough delay to
form batches when the server is *not* saturated, and the cap bounds the
latency cost of batching when it is idle.

The tick is also **deadline-aware**: the sleep never extends past the
earliest queued request's deadline, and a request whose deadline expired
while queued is shed (completed with ``DEADLINE_EXCEEDED`` by the
server's shed callback) instead of occupying a batch slot.
"""

from __future__ import annotations

import asyncio

from ..obs import histogram

__all__ = ["BatchWindowPolicy", "MicroBatcher"]

#: Wall-clock of one executed micro-batch (queue drain to results ready).
BATCH_EXEC_MS = histogram("frontend.batch_exec_ms")

#: Samples required before the policy trusts the histogram's p99.
_MIN_SAMPLES = 8


class BatchWindowPolicy:
    """Adaptive batching-tick length derived from execution latency.

    Args:
        floor_ms: Smallest window (0 disables artificial delay entirely
            until the histogram warms up).
        cap_ms: Largest window; bounds the latency cost of coalescing.
        fraction: Multiplier on the observed p99 batch-execution latency.
        latency_histogram: The :class:`repro.obs.Histogram` to read;
            defaults to :data:`BATCH_EXEC_MS`.
    """

    def __init__(
        self,
        *,
        floor_ms: float = 0.0,
        cap_ms: float = 2.0,
        fraction: float = 0.25,
        latency_histogram=None,
    ) -> None:
        if floor_ms < 0 or cap_ms < floor_ms:
            raise ValueError(
                f"need 0 <= floor_ms <= cap_ms, got {floor_ms}, {cap_ms}"
            )
        if fraction < 0:
            raise ValueError(f"fraction must be >= 0, got {fraction}")
        self.floor_ms = float(floor_ms)
        self.cap_ms = float(cap_ms)
        self.fraction = float(fraction)
        self._override_ms: float | None = None
        self._histogram = (
            latency_histogram if latency_histogram is not None else BATCH_EXEC_MS
        )

    @classmethod
    def disabled(cls) -> "BatchWindowPolicy":
        """A zero-window policy (per-request dispatch, no coalescing)."""
        return cls(floor_ms=0.0, cap_ms=0.0, fraction=0.0)

    @property
    def override_ms(self) -> float | None:
        """The controller's fixed window override, if one is set."""
        return self._override_ms

    def set_override(self, window_ms: float | None) -> None:
        """Pin the tick length, bypassing the p99-derived window.

        The control plane's sanctioned knob setter (lint rule R013 flags
        direct window mutation elsewhere): the controller calls this with
        a value inside its envelope, or ``None`` to restore the adaptive
        ``fraction × p99`` derivation.  The override is still clamped to
        ``[floor_ms, cap_ms]`` so no caller can push the tick outside the
        policy's hard bounds.
        """
        if window_ms is None:
            self._override_ms = None  # repro: noqa-R013
            return
        window_ms = float(window_ms)
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        clamped = min(max(window_ms, self.floor_ms), self.cap_ms)
        self._override_ms = clamped  # repro: noqa-R013

    def window_s(self) -> float:
        """The current tick length in seconds."""
        if self._override_ms is not None:
            return self._override_ms / 1000.0
        if self._histogram.count < _MIN_SAMPLES:
            return self.floor_ms / 1000.0
        window_ms = self.fraction * self._histogram.percentile(99)
        return min(max(window_ms, self.floor_ms), self.cap_ms) / 1000.0


class MicroBatcher:
    """The asyncio coalescing loop between tenant queues and execution.

    Args:
        scheduler: A :class:`~repro.frontend.tenancy.FairShareScheduler`
            (or anything with ``pending`` / ``take_one`` /
            ``earliest_deadline``).
        execute: Async callable ``execute(batch)`` invoked with each
            non-empty list of ``(tenant, request)`` pairs.  It must return
            quickly (dispatch the heavy work as a task); the batcher does
            not pipeline past an ``execute`` that blocks.
        shed: Callable ``shed(tenant, request)`` invoked for each queued
            request whose deadline expired before dispatch.
        policy: Tick-length policy; defaults to an adaptive one.
        max_batch: Most requests coalesced into one ``execute`` call.

    Stats attributes (read-only ints): ``batches``, ``batched_requests``,
    ``shed_expired``.
    """

    def __init__(
        self,
        scheduler,
        execute,
        *,
        shed,
        policy: BatchWindowPolicy | None = None,
        max_batch: int = 64,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._scheduler = scheduler
        self._execute = execute
        self._shed = shed
        self._policy = policy if policy is not None else BatchWindowPolicy()
        self._max_batch = max_batch
        self._wakeup = asyncio.Event()
        self._stopping = False
        self.batches = 0
        self.batched_requests = 0
        self.shed_expired = 0

    @property
    def policy(self) -> BatchWindowPolicy:
        """The tick-length policy (the controller adjusts it via
        :meth:`BatchWindowPolicy.set_override`)."""
        return self._policy

    @property
    def mean_batch_size(self) -> float:
        """Mean requests per executed batch (0.0 before the first)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    def notify(self) -> None:
        """Wake the tick loop (call after every enqueue)."""
        self._wakeup.set()

    def note_shed(self, tenant, request) -> None:
        """Shed one expired request: count it and invoke the shed
        callback.  The server routes execution-time sheds (expiry found
        after dispatch, before the service call) through here too, so
        ``shed_expired`` stays consistent with the per-tenant
        ``deadline_exceeded`` counters."""
        self.shed_expired += 1
        self._shed(tenant, request)

    def request_stop(self) -> None:
        """Ask :meth:`run` to exit once the queues are drained."""
        self._stopping = True
        self._wakeup.set()

    async def run(self) -> None:
        """The tick loop; returns after :meth:`request_stop` + drain."""
        while True:
            if self._scheduler.pending == 0:
                if self._stopping:
                    return
                self._wakeup.clear()
                # Re-check before sleeping: an enqueue+notify may have
                # landed between the pending check and the clear.
                if self._scheduler.pending == 0 and not self._stopping:
                    await self._wakeup.wait()
                continue
            window = self._policy.window_s()
            if window > 0 and not self._stopping:
                earliest = self._scheduler.earliest_deadline()
                if earliest is not None:
                    window = min(window, max(0.0, earliest.remaining_s()))
                if window > 0:
                    await asyncio.sleep(window)
            batch = []
            while len(batch) < self._max_batch:
                taken = self._scheduler.take_one()
                if taken is None:
                    break
                tenant, request = taken
                deadline = getattr(request, "deadline", None)
                if deadline is not None and deadline.expired:
                    self.note_shed(tenant, request)
                    continue
                batch.append((tenant, request))
            if batch:
                self.batches += 1
                self.batched_requests += len(batch)
                await self._execute(batch)
