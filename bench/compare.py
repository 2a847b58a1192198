"""Compare two sets of benchmark runs, one row per workload x end-to-end metric.

    python3 bench/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py`` (one record, or
the ``{"runs": [...]}`` collection ``--all`` writes; several runs of one
workload, e.g. over seeds, are reduced to their median).  For every
end-to-end metric in ``BENCHMARK.json`` the row gives A, B, the relative
change, the metric's bound and a verdict:

* ``worse`` / ``better`` — B's median moved past the bound in that direction;
* ``same`` — it did not;
* ``unresolved`` — a side has at least four runs and their spread
  (interquartile range over median) is wider than the bound, so the runs
  cannot tell ``same`` from ``worse``.

Exit status 1 when any row is ``worse``, else 0.  Only untraced runs are
compared: per-layer metrics explain a change, they do not gate it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fewest runs per side from which a spread is computed.
MIN_RUNS_FOR_SPREAD = 4


def load_runs(path: Path) -> dict:
    """``{workload: {metric: [values]}}`` of the untraced runs in ``path``."""
    data = json.loads(path.read_text())
    runs = data["runs"] if "runs" in data else [data]
    values: dict = {}
    for run in runs:
        if run.get("trace"):
            continue
        for name, metric in run["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(name, []).append(
                metric["value"]
            )
    return values


def spread(values) -> float | None:
    """Interquartile range over median, or ``None`` with too few runs."""
    if len(values) < MIN_RUNS_FOR_SPREAD:
        return None
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else None


def verdict(a, b, better: str, bound: float) -> tuple[float, float | None, str]:
    """``(relative change, widest spread, verdict)`` for one metric."""
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / abs(base) if base else 0.0
    worsening = change if better == "lower" else -change
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        return change, widest, "unresolved"
    if worsening > bound:
        return change, widest, "worse"
    if worsening < -bound:
        return change, widest, "better"
    return change, widest, "same"


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a[workload] or name not in b[workload]:
                continue
            change, widest, outcome = verdict(
                a[workload][name], b[workload][name], metric["better"], metric["bound"]
            )
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": statistics.median(a[workload][name]),
                "b": statistics.median(b[workload][name]),
                "change": change, "bound": metric["bound"], "spread": widest,
                "verdict": outcome,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.a), load_runs(args.b), json.loads(args.spec.read_text()))
    if not rows:
        print("no workload x metric is present in both files", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':16s} {'A':>14s} {'B':>14s} {'change':>8s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        shown = "-" if row["spread"] is None else f"{row['spread']:.3f}"
        print(f"{row['workload']:14s} {row['metric']:16s} {row['a']:14.4f} "
              f"{row['b']:14.4f} {row['change']:+8.1%} {row['bound']:6.3f} {shown:>7s}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
