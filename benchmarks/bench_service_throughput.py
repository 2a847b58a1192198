"""Extension — concurrent serving throughput: IndexService vs global lock.

Head-to-head closed-loop comparison on deep-copied identical index state:
N reader threads + M writer threads drive a Zipf-shaped request stream
against (a) :class:`repro.service.GlobalLockService` — one mutex around
every op, maintenance inline — and (b) :class:`repro.service.IndexService`
— snapshot reads sharing the RW lock's read side, serialized writes,
rebuilds deferred to a background daemon.  Checks every read for
well-formedness and fails on a violation or a failed request; the QPS
ratio is printed, not gated.

Standalone (prints both reports; ``--smoke`` for CI)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke

equivalently: ``python -m repro serve-bench [--smoke]``.  Also collectable
as a pytest-benchmark suite: ``pytest benchmarks/bench_service_throughput.py``.
"""

from __future__ import annotations

import sys

import pytest

from repro.service.bench import ServeBenchResult, main, run_serve_bench

__all__ = ["ServeBenchResult", "main", "run_serve_bench"]


# ----------------------------------------------------------------------
# pytest-benchmark entry points (collected by ``pytest benchmarks/``)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["global-lock", "snapshot-service"])
def test_service_throughput(benchmark, mode):
    """Benchmark one side of the comparison at the CI profile."""
    from benchmarks.conftest import SEED

    def drive():
        result = run_serve_bench(
            n=1200,
            dim=32,
            num_readers=4,
            num_writers=1,
            duration_s=0.5,
            pool_size=16,
            num_templates=4,
            seed=SEED,
            verbose=False,
        )
        assert result.violations == 0
        report = (
            result.baseline if mode == "global-lock" else result.service
        )
        benchmark.extra_info["total_qps"] = round(report.total_qps, 1)
        benchmark.extra_info["read_p99_ms"] = round(
            report.reads.percentile(99), 2
        )

    benchmark.pedantic(drive, rounds=1, iterations=1)


if __name__ == "__main__":
    sys.exit(main())
