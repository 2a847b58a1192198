"""Sample statistics and outcome accounting the benchmark's numbers rest on.

Kept free of any import from the program under test, so the unit tests in
``test_bench.py`` exercise exactly the code the reported numbers go through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Tail percentiles the benchmark may report, highest first, in per-mille
#: (integers, so the ">= 10 samples beyond" rule has no float rounding).
TAIL_PER_MILLE = (999, 990, 950, 900)

#: A percentile is only trusted with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    if len(samples) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def supported_tail(count: int) -> float | None:
    """Highest percentile with >= ``MIN_SAMPLES_BEYOND`` samples beyond it.

    Returns the percentile (99.9, 99, 95 or 90) or ``None`` when even p90
    has fewer than ten samples in its tail.
    """
    for per_mille in TAIL_PER_MILLE:
        if count * (1000 - per_mille) >= MIN_SAMPLES_BEYOND * 1000:
            return per_mille / 10.0
    return None


def summarize_ms(seconds) -> dict:
    """Median, tail percentiles and sample count of durations in seconds.

    ``tail`` names the highest percentile that has the ten observations
    beyond it that make it a measurement rather than a maximum.
    """
    ms = np.asarray(seconds, dtype=np.float64) * 1000.0
    tail = supported_tail(len(ms))
    return {
        "count": int(len(ms)),
        "p50": percentile(ms, 50),
        "p95": percentile(ms, 95),
        "p99": percentile(ms, 99),
        "tail": tail,
        "mean": float(ms.mean()),
        "max": float(ms.max()),
    }


#: A timed phase is cut, in the order its samples were taken, into at most
#: this many slices of at least ``MIN_SLICE`` samples each.
SLICES = 8
MIN_SLICE = 30


def slices(samples) -> list[np.ndarray]:
    """Consecutive equal-count slices of a phase's samples."""
    samples = np.asarray(samples, dtype=np.float64)
    return np.array_split(samples, max(1, min(SLICES, len(samples) // MIN_SLICE)))


def quiet_p50_ms(latencies_s) -> float:
    """Median latency, in ms, of the least-disturbed slice of a phase.

    The host is shared: its other tenants slow this process down in bursts
    of a second or two, and only ever slow it down.  Within one run the
    slice medians of unchanged code ranged from 4.6 to 8.5 ms, and the
    pooled median moved by 18-34 % between runs where the lowest slice
    median moved by 4-9 %.  The lowest slice median is therefore the
    closest a run gets to the program's own speed.  What it cannot see is
    a slowdown of the program that lasts less than a slice and recurs in
    every slice's minority; the pooled median and mean are recorded next
    to it for that.
    """
    return 1000.0 * min(float(np.median(part)) for part in slices(latencies_s))


def quiet_rate(latencies_s) -> float:
    """Closed-loop throughput of one client in its least-disturbed slice.

    A slice's rate is its requests over the sum of their latencies (no
    think time, so busy time is wall time); see :func:`quiet_p50_ms`.
    """
    return max(len(part) / float(part.sum()) for part in slices(latencies_s))


@dataclass
class Outcomes:
    """Every request attempted, and every one that did not succeed.

    A request that raised, was refused by admission, was shed at its
    deadline, or returned a wrong answer counts as failed; a failed
    request has no latency sample, so it also misses every latency limit.
    """

    attempted: int = 0
    failed: dict = field(default_factory=dict)
    details: list = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, kind: str, detail: str = "") -> None:
        """Count one failed request of ``kind`` (error/refused/shed/wrong)."""
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if detail and len(self.details) < 5:
            self.details.append(f"{kind}: {detail}")

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())

    @property
    def failed_share(self) -> float:
        return self.failed_total / self.attempted if self.attempted else 0.0


@dataclass
class OpenLoopLog:
    """Latency and generator lateness of an open-loop (scheduled) phase.

    Latency runs from the time a request was *due*, not from when the
    generator got round to sending it: a stall in the system delays the
    sends behind it, and timing from the send would hide that wait.
    """

    latency_s: dict = field(default_factory=dict)
    late_s: list = field(default_factory=list)

    def sent(self, due: float, sent: float) -> None:
        """Record how late the generator sent a request that was due at ``due``."""
        self.late_s.append(max(0.0, sent - due))

    def done(self, kind: str, due: float, done: float) -> None:
        """Record a completed request's latency from its due time."""
        self.latency_s.setdefault(kind, []).append(done - due)
