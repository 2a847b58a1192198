"""The repository's one benchmark command.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 bench/run.py --all [--seeds 0,1] [--reverse] [--out FILE]

One run builds the stack from the seed, drives the workload, checks that
the answers are correct, prints every metric by name with its unit, writes
the full record (provenance, parameters, sample counts) under
``bench/out/`` and ends with one JSON line:

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

``--trace 0`` (default) measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that gives the per-layer metrics
(``layers.py``).  ``BENCHMARK.json`` at the repository root names every
metric, its direction and its regression bound.  ``--all`` runs every
workload both ways, one child process per run, and collects the records
into one file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SMOKE_SECONDS = 2


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profile (n=2000, 2 s): checks the harness, not the program")
    parser.add_argument("--out", type=Path, help="where to write the full record")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced, one child process each")
    parser.add_argument("--seeds", default=None, help="with --all: comma-separated seeds")
    parser.add_argument("--reverse", action="store_true",
                        help="with --all: run the workloads in reverse order")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec()["run_seconds"]
    return args


# ----------------------------------------------------------------------
# Scratch space: inside the checkout, removed on the way out
# ----------------------------------------------------------------------
def sweep_stale_scratch() -> None:
    """Remove scratch directories whose owning process is gone (a killed run)."""
    for path in OUT.glob("tmp-*"):
        try:
            os.kill(int(path.name.split("-")[1]), 0)
        except (ProcessLookupError, ValueError, IndexError):
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass  # alive, and someone else's


def reap_resource_tracker() -> None:
    """Stop and wait for the helper process ``multiprocessing`` starts.

    The hot tier publishes shards into named shared memory, which starts a
    ``resource_tracker`` child.  It would exit by itself once this process
    does; the benchmark waits for every process it started instead.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy

    from repro import kernels

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "env": {
            name: os.environ.get(name, "unset")
            for name in ("REPRO_METRICS", "REPRO_KERNEL_BACKEND", "REPRO_SANITIZE")
        },
        "kernel_backend": kernels.backend_name(),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_untraced(workload, profile, seed: int, seconds: float, scratch: Path) -> dict:
    """Set up ``profile.setup_repeats`` times, drive the last stack, check it."""
    from stats import quiet_p50_ms, quiet_rate, summarize_ms
    from workloads import Check, Recorder

    setup_s = []
    instance = None
    for attempt in range(profile.setup_repeats):
        if instance is not None:
            instance.close()
            instance = None
            gc.collect()
        instance = workload.make()
        started = time.perf_counter()
        instance.setup(profile, seed, scratch / f"setup-{attempt}")
        setup_s.append(time.perf_counter() - started)
    rec, check = Recorder(), Check()
    try:
        instance.drive(seconds, rec)
        overlap = instance.check(rec, check)
    finally:
        instance.close()

    query, insert, delete = (
        summarize_ms(samples) for samples in (rec.query_s, rec.insert_s, rec.delete_s)
    )
    # Inserts and deletes alternate, so interleaving restores their order.
    writes = [s for pair in zip(rec.insert_s, rec.delete_s) for s in pair]
    metrics = {
        "setup_s": (statistics.median(setup_s) + rec.notes.get("front_door_start_s", 0.0), "s"),
        "query_qps": (rec.query_qps or quiet_rate(rec.query_s), "1/s"),
        "query_p50_ms": (quiet_p50_ms(rec.query_s), "ms"),
        "overlap_at_10": (overlap, "ratio"),
        "write_ops_s": (rec.write_ops_s or quiet_rate(writes), "1/s"),
        "insert_p50_ms": (quiet_p50_ms(rec.insert_s), "ms"),
        "delete_p50_ms": (quiet_p50_ms(rec.delete_s), "ms"),
        "index_bytes": (max(rec.index_bytes), "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return {
        "metrics": metrics,
        "outcomes": rec.outcomes,
        "check": check,
        "samples": {"query": query, "insert": insert, "delete": delete,
                    "setup_s": setup_s},
        "notes": rec.notes,
    }


def run_traced(workload, profile, seed: int, seconds: float, scratch: Path,
               trace_path: Path, meta: dict) -> dict:
    from layers import LayerProbe

    probe = LayerProbe(workload, profile, seed, seconds, scratch)
    try:
        probe.run()
    finally:
        probe.tracer.dump(trace_path, meta)
    return {
        "metrics": probe.metrics,
        "outcomes": probe.outcomes,
        "check": probe.check,
        "samples": {"spans": len(probe.tracer.spans)},
        "notes": {"trace_file": str(trace_path)},
    }


def run_one(args) -> int:
    if os.environ.get("REPRO_SANITIZE", "").lower() in ("1", "true", "yes", "on"):
        print("refusing to benchmark under REPRO_SANITIZE=1: every mutation would "
              "be audited and no number would mean anything", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import PROFILES, WORKLOADS

    declared = spec()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    profile = PROFILES["smoke" if args.smoke else "full"]
    suffix = ".traced" if args.trace else ""
    out = args.out or OUT / f"{workload.name}{suffix}.json"
    OUT.mkdir(parents=True, exist_ok=True)
    sweep_stale_scratch()
    # SIGTERM unwinds like an exception, so the scratch directory goes too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT))
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "profile": dataclasses.asdict(profile),
        "mix": dataclasses.asdict(workload.mix),
    }
    started = time.perf_counter()
    try:
        if args.trace:
            trace_path = out.with_name(f"{workload.name}.trace.json")
            result = run_traced(workload, profile, args.seed, args.seconds, scratch,
                                trace_path, record)
        else:
            result = run_untraced(workload, profile, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        reap_resource_tracker()

    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        unnamed = sorted(set(metrics) - set(expected))
        print(f"metric names do not match BENCHMARK.json: missing {missing}, "
              f"unnamed {unnamed}", file=sys.stderr)
        return 1
    outcomes, check = result["outcomes"], result["check"]
    correct = not check.failures and outcomes.failed_total == 0
    record.update({
        "wall_s": time.perf_counter() - started,
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed_total,
        "failed_by_kind": outcomes.failed,
        "failed_share": outcomes.failed_share,
        "failure_details": outcomes.details,
        "checks_ran": check.ran,
        "checks_failed": check.failures,
        "samples": result["samples"],
        "notes": result["notes"],
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in expected
        },
    })
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} profile={profile.name}")
    for name in expected:
        value, unit = metrics[name]
        print(f"{name:32s} {value:16.6f} {unit}")
    if not args.trace:
        # Whole-phase statistics are shown and recorded, not gated: see
        # README, "Why the least-disturbed slice" and "Tails".
        for kind in ("query", "insert", "delete"):
            pooled = result["samples"][kind]
            print(f"info {kind:6s} n={pooled['count']} pooled p50={pooled['p50']:.4f} "
                  f"mean={pooled['mean']:.4f} p95={pooled['p95']:.4f} "
                  f"p99={pooled['p99']:.4f} max={pooled['max']:.4f} ms "
                  f"(highest percentile with 10 samples beyond it: p{pooled['tail']})")
    print(f"checks: {', '.join(check.ran)}")
    for failure in check.failures + outcomes.details:
        print(f"FAILED {failure}")
    print(f"attempted={outcomes.attempted} failed={outcomes.failed_total} "
          f"failed_share={outcomes.failed_share:.6f} record={out}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed_total,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# --all: one child process per run
# ----------------------------------------------------------------------
def run_all(args) -> int:
    names = [w["name"] for w in spec()["workloads"]]
    if args.reverse:
        names.reverse()
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    out = args.out or OUT / "all.json"
    OUT.mkdir(parents=True, exist_ok=True)
    runs, status = [], 0
    for seed in seeds:
        for name in names:
            for trace in (0, 1):
                part = OUT / f"run-{os.getpid()}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(part),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command)
                if done.returncode != 0:
                    status = 1
                if part.exists():
                    runs.append(json.loads(part.read_text()))
                    part.unlink()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs}, indent=1))
    print(f"# {len(runs)} runs collected in {out}")
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
