"""Service throughput comparison: IndexService vs the global-lock baseline.

Builds one index, deep-copies it so both services serve bitwise-identical
state, then drives each with the same closed-loop workload (N reader
threads + M writer threads, Zipf-shaped query pool, fixed range
templates).  Both services run the same ``index.query`` per read; what
differs is that the snapshot service's readers share the RW lock's read
side and its deferred maintenance keeps ``O(n log n)`` rebuilds out of
every client's critical path.  Under the GIL that is worth about nothing
in aggregate QPS (EXPERIMENTS.md), so the gates are consistency and
failed requests and the ratio is printed, not gated.

Entry points: ``python -m repro serve-bench`` and
``benchmarks/bench_service_throughput.py`` (``--smoke`` for CI).
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from .engine import GlobalLockService, IndexService
from .loadgen import LoadReport, WorkloadSpec, run_load
from .maintenance import MaintenanceDaemon

__all__ = ["ServeBenchResult", "run_serve_bench"]

#: Coverages the range templates are drawn from (paper-style grid subset).
TEMPLATE_COVERAGES = (0.01, 0.05, 0.10, 0.40)


class ServeBenchResult:
    """Reports from both services plus the derived comparison.

    Attributes:
        baseline: The :class:`LoadReport` of the global-lock service.
        service: The :class:`LoadReport` of the snapshot service.
        speedup: ``service.total_qps / baseline.total_qps``.
    """

    def __init__(self, baseline: LoadReport, service: LoadReport) -> None:
        self.baseline = baseline
        self.service = service
        self.speedup = (
            service.total_qps / baseline.total_qps
            if baseline.total_qps > 0
            else float("inf")
        )

    @property
    def violations(self) -> int:
        """Total consistency-probe failures across both services."""
        return self.baseline.violations + self.service.violations

    @property
    def failed(self) -> int:
        """Total non-shed request failures across both services."""
        return (
            self.baseline.reads.failed
            + self.baseline.writes.failed
            + self.service.reads.failed
            + self.service.writes.failed
        )


def run_serve_bench(
    *,
    n: int = 10_000,
    dim: int = 64,
    num_readers: int = 8,
    num_writers: int = 1,
    duration_s: float = 4.0,
    pool_size: int = 64,
    num_templates: int = 8,
    zipf_s: float = 1.3,
    k: int = 10,
    seed: int = 0,
    open_loop_qps: float | None = None,
    verbose: bool = True,
) -> ServeBenchResult:
    """Run the head-to-head throughput comparison.

    Builds a sift-like RangePQ+ index, then measures the global-lock
    baseline and the snapshot service back-to-back on deep-copied,
    identical index state with an identical workload spec.
    """
    from ..core import AdaptiveLPolicy, RangePQPlus
    from ..datasets import load_workload
    from ..eval.harness import scaled_l_base

    workload = load_workload(
        "sift", n=n, d=dim, num_queries=pool_size, seed=seed
    )
    index = RangePQPlus.build(
        workload.vectors,
        workload.attrs,
        seed=seed,
        l_policy=AdaptiveLPolicy(
            l_base=scaled_l_base("sift", n), r_base=0.10
        ),
    )
    rng = np.random.default_rng(seed + 1)
    templates = [
        workload.range_for_coverage(
            TEMPLATE_COVERAGES[t % len(TEMPLATE_COVERAGES)], rng
        )
        for t in range(num_templates)
    ]
    spec = WorkloadSpec(
        dim=dim,
        attr_low=float(workload.attrs.min()),
        attr_high=float(workload.attrs.max()),
        k=k,
        zipf_s=zipf_s,
        seed=seed,
        query_pool=np.asarray(workload.queries, dtype=np.float64),
        range_templates=[(float(lo), float(hi)) for lo, hi in templates],
    )

    baseline_index = copy.deepcopy(index)
    baseline = GlobalLockService(baseline_index)
    baseline_report = run_load(
        baseline,
        spec,
        duration_s=duration_s,
        num_readers=num_readers,
        num_writers=num_writers,
        open_loop_qps=open_loop_qps,
    )

    service = IndexService(index, defer_maintenance=True)
    with MaintenanceDaemon(service, interval_s=0.02):
        service_report = run_load(
            service,
            spec,
            duration_s=duration_s,
            num_readers=num_readers,
            num_writers=num_writers,
            open_loop_qps=open_loop_qps,
        )

    result = ServeBenchResult(baseline_report, service_report)
    if verbose:
        print(
            f"service throughput — n={n}, d={dim}, {num_readers} readers + "
            f"{num_writers} writer(s), {duration_s:.1f}s per side, "
            f"pool={pool_size}, templates={num_templates}, "
            f"zipf_s={zipf_s}, k={k}"
        )
        print("\n--- global-lock baseline ---")
        print(baseline_report.format())
        print("\n--- snapshot service (shared reads, deferred maint.) ---")
        print(service_report.format())
        print(f"\nspeedup         {result.speedup:8.2f}x total QPS")
    return result


def main(argv: Sequence[str] | None = None) -> int:
    """CLI for the comparison; exit 1 on violations or failed requests.

    With ``--net``, delegates to the network bench
    (:mod:`repro.frontend.bench`): the asyncio front door is driven over
    TCP, batched vs unbatched, with fairness and event-loop-blocking
    checks.
    """
    import argparse
    import sys as _sys

    argv = list(_sys.argv[1:] if argv is None else argv)
    if "--net" in argv:
        from ..frontend.bench import main as net_bench_main

        argv.remove("--net")
        return net_bench_main(argv)
    parser = argparse.ArgumentParser(
        description="IndexService vs global-lock baseline throughput."
    )
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--readers", type=int, default=8)
    parser.add_argument("--writers", type=int, default=1)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--pool", type=int, default=64)
    parser.add_argument("--templates", type=int, default=8)
    parser.add_argument("--zipf", type=float, default=1.3)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--open-qps",
        type=float,
        default=None,
        help="drive reads open-loop at this offered QPS (Poisson "
        "arrivals); reports scheduled-arrival percentiles alongside "
        "service percentiles",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI profile (n=1200, 4 readers, 1s per side)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.n, args.dim = 1200, 32
        args.readers, args.duration = 4, 1.0
        args.pool, args.templates = 16, 4
    result = run_serve_bench(
        n=args.n,
        dim=args.dim,
        num_readers=args.readers,
        num_writers=args.writers,
        duration_s=args.duration,
        pool_size=args.pool,
        num_templates=args.templates,
        zipf_s=args.zipf,
        k=args.k,
        seed=args.seed,
        open_loop_qps=args.open_qps,
    )
    if result.violations:
        print(f"FAIL: {result.violations} consistency violation(s)")
        return 1
    if result.failed:
        print(f"FAIL: {result.failed} request(s) failed outright")
        return 1
    return 0
