"""Metrics exposition: Prometheus-style text, JSON, and the CLI smoke run.

``python -m repro metrics-dump`` renders the process-wide registry in both
formats.  With ``--smoke`` it first drives a tiny but complete serving
workload in-process — WAL-backed service with fsync, single reads, a
batch, writes, maintenance, a snapshot — then dumps, and exits non-zero
unless the query histograms, WAL fsync timings, and cache hit-rates are
all populated.  CI runs that as the observability gate.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

from .metrics import REGISTRY, MetricsRegistry

__all__ = ["to_prometheus", "to_json", "run_smoke_workload", "main"]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_SANITIZER.sub("_", name)


def _prom_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Render a registry in the Prometheus text exposition format."""
    snapshot = (registry or REGISTRY).snapshot()
    lines: list[str] = []
    for name, value in snapshot["counters"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in snapshot["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_float(value)}")
    for name, data in snapshot["histograms"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        for bound, count in data["buckets"]:
            lines.append(
                f'{prom}_bucket{{le="{_prom_float(bound)}"}} {count}'
            )
        lines.append(f"{prom}_sum {_prom_float(data['sum'])}")
        lines.append(f"{prom}_count {data['count']}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry | None = None) -> str:
    """Render a registry as an indented JSON document."""
    return json.dumps((registry or REGISTRY).snapshot(), indent=2)


def run_smoke_workload(*, seed: int = 0) -> None:
    """Drive one tiny end-to-end serving workload to populate the registry.

    Exercises every instrumented surface: single reads, a caller
    batch, WAL-durable writes with fsync, a rebuild-triggering delete
    storm, maintenance (cache hit-rate gauges), and a snapshot.
    """
    import tempfile

    import numpy as np

    from ..core import RangePQPlus
    from ..service import AdmissionController, IndexService

    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(400, 16))
    attrs = rng.integers(0, 100, size=400).astype(float)
    index = RangePQPlus.build(
        vectors, attrs, num_subspaces=4, num_clusters=10, num_codewords=32,
        seed=seed,
    )
    with tempfile.TemporaryDirectory() as wal_dir:
        service = IndexService(
            index,
            wal_dir=wal_dir,
            fsync=True,
            admission=AdmissionController(max_concurrent=8),
            snapshot_every=16,
        )
        for i in range(24):
            service.query(vectors[i], 10.0, 80.0, k=5)
        service.query_batch(
            vectors[:16],
            [(10.0, 80.0)] * 8 + [(0.0, 100.0)] * 8,
            k=5,
        )
        base = 10_000
        for i in range(24):
            service.insert(base + i, vectors[i], float(attrs[i]))
        # Enough deletes to trip the lazy-deletion rebuild trigger
        # (2 * invalid > size) so rebuild_ms is guaranteed to populate.
        for i in range(300):
            service.delete(int(i))
        service.run_maintenance(audit=False)
        service.snapshot()
        service.close()


#: Metrics the smoke run must leave non-empty (name, kind) — the
#: acceptance gate behind ``metrics-dump --smoke``.
_SMOKE_REQUIRED: tuple[tuple[str, str], ...] = (
    ("service.read_latency_ms", "histograms"),
    ("service.write_latency_ms", "histograms"),
    ("query.fetch_ms", "histograms"),
    ("query.adc_scan_ms", "histograms"),
    ("wal.append_ms", "histograms"),
    ("wal.fsync_ms", "histograms"),
    ("service.rebuild_ms", "histograms"),
    ("cache.table.hit_rate", "gauges"),
)


def _check_smoke(registry: MetricsRegistry) -> list[str]:
    snapshot = registry.snapshot()
    missing: list[str] = []
    for name, kind in _SMOKE_REQUIRED:
        data = snapshot[kind].get(name)
        if kind == "histograms":
            if not data or data["count"] == 0:
                missing.append(f"{name} (empty histogram)")
        elif name not in snapshot[kind]:
            missing.append(f"{name} (absent gauge)")
    return missing


def main(argv: Sequence[str] | None = None) -> int:
    """CLI for ``python -m repro metrics-dump [--smoke] [--json]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Dump the process-wide metrics registry.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run a tiny serving workload first and fail unless the core "
        "query/WAL/cache metrics are populated (the CI gate)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print JSON only (default prints both formats)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        run_smoke_workload()
    if not args.json:
        print(to_prometheus())
        print()
    print(to_json())
    if args.smoke:
        missing = _check_smoke(REGISTRY)
        if missing:
            print("\nFAIL: smoke run left metrics unpopulated:")
            for name in missing:
                print(f"  - {name}")
            return 1
        print("\nsmoke metrics: OK")
    return 0
