"""Ablation — the value of encoding cluster IDs (SP/num) in the tree.

RangePQ's whole point is that the candidate clusters and their in-range
members can be read off the cover's ``SP``/``num`` aggregates without
touching the ``|O_Q|`` in-range objects.  This benchmark compares the real
query path against a stripped variant that uses the *same* tree only as an
attribute index: it enumerates every in-range object, groups them by coarse
cluster on the fly, and then runs the identical SearchByCCenters phase.
The gap is the contribution of the SP encoding itself.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from benchmarks.conftest import BENCH_PROFILE, SEED
from repro.core.results import QueryStats
from repro.core.search import search_by_coarse_centers
from repro.eval.harness import build_indexes
from repro.tree import iter_range_objects

COVERAGE = 0.40


@pytest.fixture(scope="module")
def rangepq_index(workloads, substrates):
    return build_indexes(
        workloads["sift"], methods=("RangePQ",), base=substrates["sift"],
        seed=SEED, k=BENCH_PROFILE.k,
    )["RangePQ"]


def query_without_sp(index, query, lo, hi, k):
    """RangePQ query with the SP aggregates disabled (linear gather)."""
    groups: dict[int, list[int]] = {}
    for node in iter_range_objects(index.tree, lo, hi):
        groups.setdefault(node.cluster, []).append(node.oid)
    if not groups:
        return None
    in_range = sum(len(members) for members in groups.values())
    l_budget = index.l_policy.choose(in_range / max(len(index), 1))
    return search_by_coarse_centers(
        index.ivf,
        np.asarray(query, dtype=np.float64),
        k,
        l_budget,
        sorted(groups),
        lambda cluster, limit: groups[cluster][:limit],
        QueryStats(),
    )


@pytest.mark.parametrize("variant", ("sp_encoded", "linear_gather"))
def test_ablation_sp_encoding(
    benchmark, variant, rangepq_index, workloads, query_ranges
):
    workload = workloads["sift"]
    ranges = query_ranges[("sift", COVERAGE)]
    cycle = itertools.cycle(list(zip(workload.queries, ranges)))

    if variant == "sp_encoded":

        def run():
            query, (lo, hi) = next(cycle)
            return rangepq_index.query(query, lo, hi, BENCH_PROFILE.k)

    else:

        def run():
            query, (lo, hi) = next(cycle)
            return query_without_sp(
                rangepq_index, query, lo, hi, BENCH_PROFILE.k
            )

    benchmark.extra_info["variant"] = variant
    benchmark(run)
