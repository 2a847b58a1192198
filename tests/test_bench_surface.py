"""The surface ``bench/`` depends on, checked from tier-1.

Tier-1 does not collect ``bench/``, and a non-benchmark PR may not edit
it, so the names it imports are frozen API (ROADMAP, "rules of
engagement").  These tests import every one of them, touch the attributes
``bench/layers.py`` and ``bench/workloads.py`` read, and run one smoke
workload both ways, so a deletion that breaks the benchmark fails here
first.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

FROZEN = {
    "repro.core": ["RangePQ", "RangePQPlus", "AdaptiveLPolicy"],
    "repro.tree": ["RangeTree", "decompose", "cover_cluster_ids"],
    "repro.tree.augmented": ["cover_take_cluster"],
    "repro.ivf": ["IVFPQIndex"],
    "repro.kernels": ["topk_order", "backend_name"],
    "repro.service.engine": ["IndexService"],
    "repro.service.router": ["RangeShardedService", "merge_topk"],
    "repro.service.wal": ["WriteAheadLog", "WAL_NAME"],
    "repro.service.admission": ["AdmissionError"],
    "repro.control.tiering": ["TieredReadPath"],
    "repro.frontend.server": ["FrontendServer"],
    "repro.frontend.client": ["FrontendClient"],
    "repro.frontend.tenancy": ["TenantConfig"],
    "repro.frontend.protocol": ["encode_frame", "decode_frame", "ok_response"],
    "repro.datasets": ["load_workload"],
    "repro.eval.groundtruth": ["exact_range_knn"],
    "repro.eval.harness": ["scaled_l_base"],
}

INDEX_METHODS = [
    "query", "batch_search", "insert", "delete", "check_invariants",
    "memory_bytes",
]
IVF_METHODS = [
    "center_distances", "distance_table", "adc_for_ids", "add", "remove",
    "clear_caches", "clone_empty",
]


@pytest.mark.parametrize("module", sorted(FROZEN))
def test_frozen_names_import(module):
    imported = importlib.import_module(module)
    missing = [name for name in FROZEN[module] if not hasattr(imported, name)]
    assert not missing, f"{module} lost {missing}"


def test_frozen_methods_and_attributes():
    from repro.core import RangePQ, RangePQPlus
    from repro.core.batch import BatchStats
    from repro.frontend.server import FrontendServer
    from repro.ivf import IVFPQIndex
    from repro.service.engine import IndexService, ServiceStats

    for cls in (RangePQ, RangePQPlus):
        assert [m for m in INDEX_METHODS if not hasattr(cls, m)] == []
    assert [m for m in IVF_METHODS if not hasattr(IVFPQIndex, m)] == []
    assert hasattr(IndexService, "query_batch")
    batch_stats = BatchStats()
    assert (batch_stats.table_cache_hits, batch_stats.table_cache_misses) == (0, 0)
    service_stats = ServiceStats()
    assert (service_stats.reads, service_stats.read_batches) == (0, 0)
    server = FrontendServer(object())
    assert {"batches", "batched_requests"} <= set(server.stats())
    assert server.batcher is not None


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_smoke_run(trace, tmp_path):
    """``bench/run.py --smoke`` on the workload that goes through
    ``IndexService``: untraced (end-to-end) and traced (per-layer)."""
    # bench/run.py refuses to measure under the sanitizer.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    finished = subprocess.run(
        [
            sys.executable, str(REPO / "bench" / "run.py"),
            "--workload", "churn_window", "--smoke", "--trace", trace,
            "--out", str(tmp_path / "run.json"),
        ],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=180,
    )
    assert finished.returncode == 0, finished.stdout[-2000:] + finished.stderr[-2000:]
    summary = json.loads(finished.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
