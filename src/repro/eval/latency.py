"""Latency-distribution measurement (p50/p95/p99), DB-style.

The paper reports mean query time; operators care about tails.  This
utility runs a fixed (query, range) workload against any index exposing the
common ``query`` interface and reports the latency distribution and
throughput, with warmup to exclude first-touch effects.

Samples are collected into an ungated :class:`repro.obs.Histogram` — the
same fixed-bucket structure the serving layer exports — so the report's
percentiles match what ``metrics-dump`` would show for the equivalent
production histogram, and reports keep working under ``REPRO_METRICS=0``.
Count, mean, and max are exact; p50/p95/p99 are bucket-interpolated and
clamped to the observed ``[min, max]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import Histogram, phase

__all__ = ["LatencyReport", "measure_latencies"]


@dataclass(frozen=True)
class LatencyReport:
    """Summary of one latency run (all times in milliseconds).

    Attributes:
        count: Number of timed queries (exact).
        mean_ms / max_ms: Exact distribution points.
        p50_ms / p95_ms / p99_ms: Bucket-interpolated percentiles, clamped
            to the observed sample range (monotone in the quantile).
        qps: Throughput implied by the total timed duration.
    """

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    qps: float

    def __str__(self) -> str:
        return (
            f"{self.count} queries: mean {self.mean_ms:.2f} ms, "
            f"p50 {self.p50_ms:.2f}, p95 {self.p95_ms:.2f}, "
            f"p99 {self.p99_ms:.2f}, max {self.max_ms:.2f} "
            f"({self.qps:.0f} qps)"
        )


def measure_latencies(
    index,
    queries: np.ndarray,
    ranges: Sequence[tuple[float, float]],
    k: int,
    *,
    repeats: int = 1,
    warmup: int = 2,
) -> LatencyReport:
    """Time every (query, range) pair and summarize the distribution.

    Args:
        index: Any object with ``query(vector, lo, hi, k)``.
        queries: Array of shape ``(q, d)``.
        ranges: One ``(lo, hi)`` per query.
        k: Result count per query.
        repeats: Passes over the whole workload (all timed).
        warmup: Untimed leading queries (caches, lazy arrays).

    Returns:
        A :class:`LatencyReport`.
    """
    if len(queries) != len(ranges):
        raise ValueError(f"{len(queries)} queries but {len(ranges)} ranges")
    if len(queries) == 0:
        raise ValueError("need at least one query")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    pairs = list(zip(queries, ranges))
    for query, (lo, hi) in pairs[: max(0, warmup)]:
        index.query(query, lo, hi, k)
    # Ungated: reports must work even under REPRO_METRICS=0.
    hist = Histogram("eval.latency_ms", gated=False)
    for _ in range(repeats):
        for query, (lo, hi) in pairs:
            with phase("eval_query") as timer:
                index.query(query, lo, hi, k)
            hist.observe(timer.ms)
    total_seconds = hist.sum / 1000.0
    return LatencyReport(
        count=hist.count,
        mean_ms=hist.mean,
        p50_ms=hist.percentile(50),
        p95_ms=hist.percentile(95),
        p99_ms=hist.percentile(99),
        max_ms=hist.max,
        qps=hist.count / total_seconds if total_seconds > 0 else 0.0,
    )
