"""Traced CPython heap per object of the served indexes.

``memory_bytes()`` stays the paper's cost model: what a C implementation
would store (DESIGN.md §4.5).  This test measures something else, the bytes
the Python objects actually hold, with ``tracemalloc`` around a build on a
pre-trained substrate (n = 5 000, d = 64, M = 16, Z = 256, K = 71, the
bench substrate's shape at a quarter of its size).  The object ids are
made before the traced region, so what is counted is what the index itself
allocates.  Each bound sits below the value measured while the IVF layer
still kept per-cluster inverted lists beside its row arrays, so re-adding
that copy fails here.

Measured on CPython 3.11 / numpy 2.4 (B/obj, with lists -> without):

    IVFPQIndex.add    139.1 -> 88.2    bound 115
    RangePQ.build     675.8 -> 624.8   bound 650
    RangePQPlus.build 405.7 -> 354.8   bound 375

Only 3.11 was measured; CI also runs 3.10 and 3.12, whose dict and int
layouts differ slightly.  Every bound keeps at least 20 B/obj of margin on
both sides.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import pytest

from repro.core import RangePQ, RangePQPlus
from repro.datasets import load_workload
from repro.ivf import IVFPQIndex

N = 5_000


@pytest.fixture(scope="module")
def substrate():
    data = load_workload("sift", n=N, d=64, num_queries=1, seed=0)
    ivf = IVFPQIndex(
        16, num_clusters=math.ceil(math.sqrt(N)), num_codewords=256, seed=0
    ).train(data.vectors, max_iter=4, max_training_points=2000)
    return data, ivf, list(range(N))


def _heap_per_object(build) -> float:
    """Traced bytes per object still held by what ``build()`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == N
    return held / N


def test_ivf_heap_per_object(substrate):
    data, ivf, ids = substrate

    def build():
        index = ivf.clone_empty()
        index.add(ids, data.vectors)
        return index

    assert _heap_per_object(build) <= 115


@pytest.mark.parametrize("cls, bound", [(RangePQ, 650), (RangePQPlus, 375)])
def test_index_heap_per_object(substrate, cls, bound):
    data, ivf, ids = substrate

    def build():
        return cls.build(data.vectors, data.attrs, ids=ids, ivf=ivf.clone_empty())

    assert _heap_per_object(build) <= bound
