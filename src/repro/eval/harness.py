"""Experiment harness: regenerate every figure of the paper's evaluation.

Each ``figure_N`` function reproduces one figure's series (methods × x-axis
points, reporting mean query time and Recall@100-equivalents) on the
scaled-down synthetic workloads.  Run from the command line::

    python -m repro.eval.harness --figure 3            # Fig. 3 (SIFT queries)
    python -m repro.eval.harness --figure all --scale small
    python -m repro.eval.harness --figure 8 --markdown # for EXPERIMENTS.md

Scaling notes (see DESIGN.md §2/§4): ``n`` is 10^3–10^4 instead of 10^6, and
the retrieval budget ``L_base`` is scaled to keep the paper's ratio
``L / |O_Q|`` at ``r_base`` coverage — 1% for SIFT/WIT, 3% for GIST (the
paper uses 1000 and 3000 at 100k in-range objects).  Absolute times are
pure-Python and not comparable to the paper's C++; the *shape* (who wins,
how recall moves) is the reproduction target.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..baselines import MilvusLikeIndex, RIIIndex, VBaseIndex
from ..core import AdaptiveLPolicy, FixedLPolicy, RangePQ, RangePQPlus
from ..datasets import Workload, load_workload
from ..ivf import IVFPQIndex, default_num_clusters
from .groundtruth import exact_range_knn
from .metrics import intersection_recall, mean_metric, nn_recall_at_k
from .reporting import format_markdown, format_table

__all__ = [
    "ScaleProfile",
    "SMALL",
    "DEFAULT",
    "METHOD_NAMES",
    "build_indexes",
    "scaled_l_base",
    "run_query_experiment",
    "figure_3",
    "figure_4",
    "figure_5",
    "figure_6",
    "figure_7",
    "figure_8",
    "figure_9",
    "figure_10",
    "figure_11",
    "figure_12",
    "main",
]

#: Paper's query-range coverage grid (Exp. 1).
PAPER_COVERAGES = (0.001, 0.005, 0.01, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80)

#: Methods in the paper's plots, in its legend order.
METHOD_NAMES = ("Milvus", "RII", "VBase", "RangePQ", "RangePQ+")


@dataclass(frozen=True)
class ScaleProfile:
    """How large an experiment run is.

    Attributes:
        name: Profile label.
        n: Objects per dataset.
        dims: Dimensionality per dataset name.
        num_queries: Queries averaged per data point.
        k: Top-k (the paper reports Recall@100).
        coverages: Query-range coverage grid.
        num_update_ops: Insertions/deletions timed in Figs. 6-7.
    """

    name: str
    n: int
    dims: Mapping[str, int]
    num_queries: int
    k: int = 100
    coverages: tuple[float, ...] = PAPER_COVERAGES
    num_update_ops: int = 200


SMALL = ScaleProfile(
    name="small",
    n=2000,
    dims={"sift": 64, "gist": 96, "wit": 128},
    num_queries=15,
    k=20,
    coverages=(0.01, 0.10, 0.40),
    num_update_ops=60,
)

DEFAULT = ScaleProfile(
    name="default",
    n=10000,
    dims={"sift": 128, "gist": 240, "wit": 512},
    num_queries=50,
    k=100,
    coverages=PAPER_COVERAGES,
    num_update_ops=200,
)

PROFILES = {"small": SMALL, "default": DEFAULT}


def scaled_l_base(dataset: str, n: int, k: int = 100) -> int:
    """``L_base`` keeping the paper's ``L / |O_Q|`` ratio at 10% coverage.

    Paper: SIFT/WIT use 1000, GIST 3000, with 100k objects in a 10% range
    of a 1M set — i.e. 1% and 3% of the in-range count — and L_base is
    10-30x the reported k=100.  At small n those two ratios conflict; we
    keep the coverage ratio but floor L_base at ``2k`` so top-k selection
    has headroom.
    """
    fraction = 0.03 if dataset == "gist" else 0.01
    return max(2 * k, int(round(fraction * n)))


def make_workload(dataset: str, profile: ScaleProfile, seed: int = 0) -> Workload:
    """Build the scaled workload for one dataset under a profile."""
    return load_workload(
        dataset,
        n=profile.n,
        d=profile.dims[dataset],
        num_queries=profile.num_queries,
        seed=seed,
    )


def train_substrate(
    workload: Workload, *, num_subspaces: int | None = None, seed: int = 0
) -> IVFPQIndex:
    """Train one IVFPQ substrate (coarse centers + codebooks) for a workload."""
    dim = workload.dim
    if num_subspaces is None:
        num_subspaces = max(1, dim // 4)
    ivf = IVFPQIndex(num_subspaces, seed=seed)
    ivf.train(workload.vectors)
    return ivf


def build_indexes(
    workload: Workload,
    *,
    methods: Sequence[str] = METHOD_NAMES,
    base: IVFPQIndex | None = None,
    seed: int = 0,
    epsilon: int | None = None,
    l_policy=None,
    k: int = 100,
) -> dict[str, object]:
    """Build the requested indexes over one shared trained substrate.

    Every method receives an identically trained (coarse + PQ) substrate via
    :meth:`IVFPQIndex.clone_empty`, so quality differences reflect query
    strategy, not quantizer luck.
    """
    if base is None:
        base = train_substrate(workload, seed=seed)
    vectors, attrs = workload.vectors, workload.attrs
    n = workload.num_objects
    l_base = scaled_l_base(workload.name, n, k)
    policy = l_policy or AdaptiveLPolicy(l_base=l_base, r_base=0.10)
    built: dict[str, object] = {}
    for method in methods:
        ivf = base.clone_empty()
        if method == "Milvus":
            built[method] = MilvusLikeIndex.build(vectors, attrs, ivf=ivf)
        elif method == "RII":
            built[method] = RIIIndex.build(
                vectors, attrs, ivf=ivf, l_candidates=l_base
            )
        elif method == "VBase":
            built[method] = VBaseIndex.build(vectors, attrs, ivf=ivf)
        elif method == "RangePQ":
            built[method] = RangePQ.build(
                vectors, attrs, ivf=ivf, l_policy=policy
            )
        elif method == "RangePQ+":
            built[method] = RangePQPlus.build(
                vectors, attrs, ivf=ivf, l_policy=policy, epsilon=epsilon
            )
        else:
            raise ValueError(f"unknown method {method!r}")
    return built


# ----------------------------------------------------------------------
# Query experiments (Figs. 3-5, and the parameter studies reuse this core)
# ----------------------------------------------------------------------
@dataclass
class QueryPoint:
    """One (coverage, method) measurement."""

    coverage: float
    method: str
    mean_ms: float
    recall: float
    overlap: float
    mean_candidates: float = 0.0


def _measure_queries(
    index,
    workload: Workload,
    ranges: Sequence[tuple[float, float]],
    truths: Sequence[np.ndarray],
    k: int,
) -> tuple[float, float, float, float]:
    """Run all queries against one index; returns (ms, recall, overlap, cands)."""
    recalls, overlaps, candidates = [], [], []
    start = time.perf_counter()
    results = [
        index.query(query, lo, hi, k)
        for query, (lo, hi) in zip(workload.queries, ranges)
    ]
    elapsed_ms = (time.perf_counter() - start) * 1000.0 / max(len(results), 1)
    for result, truth in zip(results, truths):
        recalls.append(nn_recall_at_k(result.ids, truth, k))
        overlaps.append(intersection_recall(result.ids, truth, k))
        candidates.append(result.stats.num_candidates)
    return (
        elapsed_ms,
        mean_metric(recalls),
        mean_metric(overlaps),
        mean_metric(candidates),
    )


def run_query_experiment(
    dataset: str,
    profile: ScaleProfile,
    *,
    methods: Sequence[str] = METHOD_NAMES,
    seed: int = 0,
    indexes: Mapping[str, object] | None = None,
    workload: Workload | None = None,
) -> list[QueryPoint]:
    """The Fig. 3-5 protocol: coverage sweep × methods, time + Recall@k."""
    if workload is None:
        workload = make_workload(dataset, profile, seed=seed)
    if indexes is None:
        indexes = build_indexes(workload, methods=methods, seed=seed, k=profile.k)
    rng = np.random.default_rng(seed + 1)
    points: list[QueryPoint] = []
    for coverage in profile.coverages:
        ranges = [
            workload.range_for_coverage(coverage, rng)
            for _ in range(len(workload.queries))
        ]
        truths = [
            exact_range_knn(
                workload.vectors, workload.attrs, query, lo, hi, profile.k
            )
            for query, (lo, hi) in zip(workload.queries, ranges)
        ]
        for method in methods:
            ms, recall, overlap, cands = _measure_queries(
                indexes[method], workload, ranges, truths, profile.k
            )
            points.append(
                QueryPoint(coverage, method, ms, recall, overlap, cands)
            )
    return points


def _query_points_table(points: list[QueryPoint]) -> tuple[list, list]:
    headers = [
        "coverage", "method", "ms/query", "Recall@k", "overlap@k", "candidates"
    ]
    rows = [
        [
            f"{p.coverage:.1%}", p.method, p.mean_ms, p.recall, p.overlap,
            p.mean_candidates,
        ]
        for p in points
    ]
    return headers, rows


def figure_3(profile: ScaleProfile, seed: int = 0):
    """Fig. 3: query time and recall vs range coverage on SIFT-like data."""
    return _query_points_table(run_query_experiment("sift", profile, seed=seed))


def figure_4(profile: ScaleProfile, seed: int = 0):
    """Fig. 4: same protocol on GIST-like data (L_base at 3%)."""
    return _query_points_table(run_query_experiment("gist", profile, seed=seed))


def figure_5(profile: ScaleProfile, seed: int = 0):
    """Fig. 5: same protocol on WIT-like data (correlated size attribute)."""
    return _query_points_table(run_query_experiment("wit", profile, seed=seed))


# ----------------------------------------------------------------------
# Update experiments (Figs. 6-7)
# ----------------------------------------------------------------------
def _fresh_objects(workload: Workload, count: int, seed: int):
    """Unseen objects to insert: regenerate the workload with extra rows."""
    extra = load_workload(
        workload.name,
        n=workload.num_objects + count,
        d=workload.dim,
        num_queries=1,
        seed=seed + 1000,
    )
    vectors = extra.vectors[workload.num_objects :]
    attrs = extra.attrs[workload.num_objects :]
    ids = range(10**7, 10**7 + count)
    return list(ids), vectors, attrs


def figure_6(profile: ScaleProfile, seed: int = 0):
    """Fig. 6: mean insertion time per index across all datasets."""
    headers = ["dataset", "method", "ms/insert"]
    rows = []
    for dataset in ("sift", "gist", "wit"):
        workload = make_workload(dataset, profile, seed=seed)
        indexes = build_indexes(workload, seed=seed, k=profile.k)
        ids, vectors, attrs = _fresh_objects(
            workload, profile.num_update_ops, seed
        )
        for method in METHOD_NAMES:
            index = indexes[method]
            start = time.perf_counter()
            for oid, vector, attr in zip(ids, vectors, attrs):
                index.insert(oid, vector, attr)
            elapsed = (time.perf_counter() - start) * 1000.0 / len(ids)
            rows.append([dataset, method, elapsed])
    return headers, rows


def figure_7(profile: ScaleProfile, seed: int = 0):
    """Fig. 7: mean deletion time per index across all datasets."""
    headers = ["dataset", "method", "ms/delete"]
    rows = []
    for dataset in ("sift", "gist", "wit"):
        workload = make_workload(dataset, profile, seed=seed)
        indexes = build_indexes(workload, seed=seed, k=profile.k)
        rng = np.random.default_rng(seed + 2)
        victims = rng.choice(
            workload.num_objects, size=profile.num_update_ops, replace=False
        )
        for method in METHOD_NAMES:
            index = indexes[method]
            start = time.perf_counter()
            for oid in victims.tolist():
                index.delete(oid)
            elapsed = (time.perf_counter() - start) * 1000.0 / len(victims)
            rows.append([dataset, method, elapsed])
    return headers, rows


# ----------------------------------------------------------------------
# Memory (Fig. 8)
# ----------------------------------------------------------------------
def figure_8(profile: ScaleProfile, seed: int = 0):
    """Fig. 8: index memory (cost model) vs raw data size, per dataset."""
    headers = ["dataset", "method", "MB"]
    rows = []
    for dataset in ("sift", "gist", "wit"):
        workload = make_workload(dataset, profile, seed=seed)
        indexes = build_indexes(workload, seed=seed, k=profile.k)
        raw = 4 * workload.num_objects * workload.dim
        rows.append([dataset, "raw data", raw / 1e6])
        for method in METHOD_NAMES:
            rows.append([dataset, method, indexes[method].memory_bytes() / 1e6])
    return headers, rows


# ----------------------------------------------------------------------
# Parameter studies (Figs. 9-12)
# ----------------------------------------------------------------------
def figure_9(profile: ScaleProfile, seed: int = 0):
    """Fig. 9: impact of PQ subspace count M on RangePQ+ (all datasets)."""
    headers = ["dataset", "M", "ms/query", "Recall@k", "overlap@k"]
    rows = []
    for dataset in ("sift", "gist", "wit"):
        workload = make_workload(dataset, profile, seed=seed)
        dim = workload.dim
        for divisor in (16, 8, 4, 2):
            m = dim // divisor
            if m < 1 or dim % m:
                continue
            base = train_substrate(workload, num_subspaces=m, seed=seed)
            indexes = build_indexes(
                workload, methods=("RangePQ+",), base=base, seed=seed,
                k=profile.k,
            )
            sub_profile = ScaleProfile(
                name=profile.name,
                n=profile.n,
                dims=profile.dims,
                num_queries=profile.num_queries,
                k=profile.k,
                coverages=(0.10,),
                num_update_ops=profile.num_update_ops,
            )
            points = run_query_experiment(
                dataset,
                sub_profile,
                methods=("RangePQ+",),
                seed=seed,
                indexes=indexes,
                workload=workload,
            )
            point = points[0]
            rows.append(
                [dataset, f"d/{divisor}", point.mean_ms, point.recall, point.overlap]
            )
    return headers, rows


def figure_10(profile: ScaleProfile, seed: int = 0):
    """Fig. 10: impact of the bucket size ε on RangePQ+ (memory/time/recall)."""
    headers = ["dataset", "epsilon", "MB", "ms/query", "Recall@k"]
    rows = []
    for dataset in ("sift", "gist", "wit"):
        workload = make_workload(dataset, profile, seed=seed)
        base = train_substrate(workload, seed=seed)
        k_clusters = base.num_clusters
        for factor in (0.25, 1.0, 4.0, 16.0):
            epsilon = max(1, int(round(k_clusters * factor)))
            indexes = build_indexes(
                workload,
                methods=("RangePQ+",),
                base=base,
                seed=seed,
                epsilon=epsilon,
                k=profile.k,
            )
            sub_profile = ScaleProfile(
                name=profile.name,
                n=profile.n,
                dims=profile.dims,
                num_queries=profile.num_queries,
                k=profile.k,
                coverages=(0.10,),
                num_update_ops=profile.num_update_ops,
            )
            point = run_query_experiment(
                dataset,
                sub_profile,
                methods=("RangePQ+",),
                seed=seed,
                indexes=indexes,
                workload=workload,
            )[0]
            rows.append(
                [
                    dataset,
                    epsilon,
                    indexes["RangePQ+"].memory_bytes() / 1e6,
                    point.mean_ms,
                    point.recall,
                ]
            )
    return headers, rows


def _fixed_l_sweep(
    dataset: str,
    profile: ScaleProfile,
    l_values: Sequence[int],
    coverages: Sequence[float],
    seed: int,
):
    """Shared core of Figs. 11-12: RangePQ+ under FixedLPolicy."""
    workload = make_workload(dataset, profile, seed=seed)
    base = train_substrate(workload, seed=seed)
    rows = []
    for l_value in l_values:
        indexes = build_indexes(
            workload,
            methods=("RangePQ+",),
            base=base,
            seed=seed,
            l_policy=FixedLPolicy(l=l_value),
        )
        sub_profile = ScaleProfile(
            name=profile.name,
            n=profile.n,
            dims=profile.dims,
            num_queries=profile.num_queries,
            k=profile.k,
            coverages=tuple(coverages),
            num_update_ops=profile.num_update_ops,
        )
        points = run_query_experiment(
            dataset,
            sub_profile,
            methods=("RangePQ+",),
            seed=seed,
            indexes=indexes,
            workload=workload,
        )
        for point in points:
            rows.append(
                [dataset, l_value, f"{point.coverage:.1%}", point.mean_ms,
                 point.recall, point.overlap]
            )
    return rows


def figure_11(profile: ScaleProfile, seed: int = 0):
    """Fig. 11: L sweep at fixed 10% coverage (calibrates L_base)."""
    headers = ["dataset", "L", "coverage", "ms/query", "Recall@k", "overlap@k"]
    rows = []
    for dataset in ("sift", "gist", "wit"):
        l_base = scaled_l_base(dataset, profile.n, profile.k)
        l_values = [
            max(1, l_base // 2), l_base, 2 * l_base, 3 * l_base, 4 * l_base
        ]
        rows.extend(
            _fixed_l_sweep(dataset, profile, l_values, (0.10,), seed)
        )
    return headers, rows


def figure_12(profile: ScaleProfile, seed: int = 0):
    """Fig. 12: fixed-L across coverages — recall collapses as ranges grow,
    motivating the adaptive policy."""
    headers = ["dataset", "L", "coverage", "ms/query", "Recall@k", "overlap@k"]
    rows = []
    for dataset in ("sift", "gist", "wit"):
        l_base = scaled_l_base(dataset, profile.n, profile.k)
        rows.extend(
            _fixed_l_sweep(dataset, profile, [l_base], profile.coverages, seed)
        )
    return headers, rows


FIGURES: dict[str, Callable] = {
    "3": figure_3,
    "4": figure_4,
    "5": figure_5,
    "6": figure_6,
    "7": figure_7,
    "8": figure_8,
    "9": figure_9,
    "10": figure_10,
    "11": figure_11,
    "12": figure_12,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: print one figure's series (or all of them)."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's figures on synthetic workloads."
    )
    parser.add_argument(
        "--figure",
        default="all",
        choices=[*FIGURES, "all"],
        help="Figure number to regenerate (default: all).",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=list(PROFILES),
        help="Workload scale profile (default: small).",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="Emit Markdown tables (for EXPERIMENTS.md).",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="Also render ASCII charts for the coverage-sweep figures.",
    )
    args = parser.parse_args(argv)
    profile = PROFILES[args.scale]
    selected = list(FIGURES) if args.figure == "all" else [args.figure]
    render = format_markdown if args.markdown else format_table
    for figure_id in selected:
        function = FIGURES[figure_id]
        print(f"\n=== Figure {figure_id} — {function.__doc__.splitlines()[0]}")
        print(f"    (scale={profile.name}, n={profile.n}, seed={args.seed})")
        headers, rows = function(profile, seed=args.seed)
        print(render(headers, rows))
        if args.plot and figure_id in ("3", "4", "5"):
            print()
            print(_plot_query_rows(rows))
    return 0


def _plot_query_rows(rows) -> str:
    """Render the Fig. 3-5 table rows as two ASCII line charts."""
    from .plots import ascii_line_chart

    coverages: list[str] = []
    times: dict[str, list[float]] = {}
    recalls: dict[str, list[float]] = {}
    for coverage, method, ms, _recall, overlap, *_ in rows:
        if coverage not in coverages:
            coverages.append(coverage)
        times.setdefault(method, []).append(float(ms))
        recalls.setdefault(method, []).append(float(overlap))
    chart_a = ascii_line_chart(
        times, x_labels=coverages, title="query time (ms, log y)", log_y=True
    )
    chart_b = ascii_line_chart(
        recalls, x_labels=coverages, title="overlap@k"
    )
    return chart_a + "\n\n" + chart_b


if __name__ == "__main__":
    raise SystemExit(main())
