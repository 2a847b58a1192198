"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``.

Not collected by the repository's tier-1 run (``testpaths = ["tests"]``).
The unit tests cover the helpers the reported numbers rest on; the smoke
test drives all five workloads, untraced and traced, on the tiny profile.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from stats import (  # noqa: E402
    OpenLoopLog, Outcomes, quiet_p50_ms, quiet_rate, slices, summarize_ms, supported_tail,
)
from trace import Tracer, covered, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]

#: The correctness checks each kind of run must report having made.
EXPECTED_CHECKS = {
    ("query_narrow", 0): {"live_count", "check_invariants", "query_equals_batch_search"},
    ("query_wide", 0): {"live_count", "check_invariants", "query_equals_batch_search"},
    ("churn_window", 0): {"live_count", "check_invariants", "recovered_equals_live"},
    ("scatter_wide", 0): {"live_count", "check_invariants", "router_equals_tier_hot",
                          "router_equals_tier_cold"},
    ("serve_mixed", 0): {"live_count", "check_invariants", "wire_equals_direct"},
}
TRACED_CHECKS = {
    "replay_equals_query", "check_invariants", "scatter_replay_equals_router",
    "router_equals_tier_cold", "router_equals_tier_hot", "live_count",
    "recovered_equals_live", "check_invariants_after_writes", "wire_equals_direct",
}


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_child_cover():
    spans = [
        ["parent", 0.0, 10.0, -1, 1],
        ["child", 1.0, 3.0, 0, 1],
        ["child", 5.0, 6.0, 0, 1],
        ["grandchild", 1.5, 2.0, 1, 1],
    ]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])


def test_overlapping_children_are_counted_once():
    # Two concurrent children overlap on [2, 3]; one sticks out past the parent.
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)]) == pytest.approx(5.0)
    spans = [["parent", 0.0, 10.0, -1, 1], ["a", 1.0, 3.0, 0, 1],
             ["b", 2.0, 5.0, 0, 1], ["c", 9.0, 12.0, 0, 1]]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_records_parent_and_request():
    tracer = Tracer()
    with tracer.span("outer", request=7):
        with tracer.span("inner", request=7):
            pass
    (outer, inner) = tracer.spans
    assert (outer[0], outer[3], outer[4]) == ("outer", -1, 7)
    assert (inner[0], inner[3], inner[4]) == ("inner", 0, 7)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert self_times(tracer.spans)[0] <= tracer.durations("outer")[0]


# ----------------------------------------------------------------------
# Percentiles, outcomes, open-loop accounting
# ----------------------------------------------------------------------
def test_highest_percentile_with_ten_samples_beyond_it():
    assert supported_tail(99) is None
    assert supported_tail(100) == 90.0       # exactly 10 beyond p90
    assert supported_tail(199) == 90.0
    assert supported_tail(200) == 95.0
    assert supported_tail(999) == 95.0       # 9.99 beyond p99 is not 10
    assert supported_tail(1000) == 99.0
    assert supported_tail(10_000) == 99.9
    assert summarize_ms([0.001] * 999)["tail"] == 95.0
    assert summarize_ms([0.001] * 1000)["tail"] == 99.0


def test_slices_are_consecutive_and_hold_at_least_thirty_samples():
    assert [len(part) for part in slices(range(800))] == [100] * 8
    assert [len(part) for part in slices(range(100))] == [34, 33, 33]
    assert [len(part) for part in slices(range(59))] == [59]
    assert list(slices(range(60))[1]) == list(range(30, 60))


def test_the_least_disturbed_slice_is_reported():
    calm, disturbed = [0.001] * 100, [0.002] * 100
    samples = disturbed * 3 + calm + disturbed * 4     # one calm slice of eight
    assert quiet_p50_ms(samples) == pytest.approx(1.0)
    assert quiet_rate(samples) == pytest.approx(1000.0)
    # A stall inside the calm slice is still paid by its rate, not by its median.
    samples[350] = 0.101
    assert quiet_p50_ms(samples) == pytest.approx(1.0)
    assert quiet_rate(samples) == pytest.approx(500.0)


def test_failed_share_counts_refused_shed_and_wrong():
    outcomes = Outcomes()
    outcomes.attempt(20)
    for kind in ("error", "refused", "shed", "wrong", "wrong"):
        outcomes.fail(kind, "detail")
    assert outcomes.failed_total == 5
    assert outcomes.failed == {"error": 1, "refused": 1, "shed": 1, "wrong": 2}
    assert outcomes.failed_share == pytest.approx(0.25)
    assert Outcomes().failed_share == 0.0


def test_open_loop_latency_runs_from_the_due_time():
    log = OpenLoopLog()
    # Due at t=1.0, but the generator was stalled and sent it at t=1.4; the
    # answer came at t=1.5.  The caller waited 0.5 s, not 0.1 s.
    log.sent(due=1.0, sent=1.4)
    log.done("query", due=1.0, done=1.5)
    log.sent(due=2.0, sent=2.0)
    log.done("insert", due=2.0, done=2.25)
    assert log.latency_s == {"query": [pytest.approx(0.5)], "insert": [pytest.approx(0.25)]}
    assert log.late_s == [pytest.approx(0.4), 0.0]


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts():
    assert compare.verdict([10.0], [10.5], "lower", 0.10)[2] == "same"
    assert compare.verdict([10.0], [11.5], "lower", 0.10)[2] == "worse"
    assert compare.verdict([10.0], [8.0], "lower", 0.10)[2] == "better"
    assert compare.verdict([10.0], [8.0], "higher", 0.10)[2] == "worse"
    assert compare.verdict([10.0], [12.0], "higher", 0.10)[2] == "better"
    noisy = [8.0, 9.0, 10.0, 11.0, 12.0]  # spread 0.3 > bound
    assert compare.verdict(noisy, [10.0] * 5, "lower", 0.10)[2] == "unresolved"
    steady = [9.9, 10.0, 10.0, 10.1]
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)[2] == "worse"


def test_compare_exits_1_on_worse(tmp_path):
    def record(value):
        return {"runs": [{"workload": "query_wide", "trace": 0,
                          "metrics": {"query_p50_ms": {"value": value, "unit": "ms"}}}]}

    a, b, spec = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "spec.json"
    a.write_text(json.dumps(record(5.0)))
    b.write_text(json.dumps(record(6.0)))
    spec.write_text(json.dumps({
        "workloads": [{"name": "query_wide", "why": ""}],
        "end_to_end": [{"name": "query_p50_ms", "unit": "ms", "better": "lower",
                        "bound": 0.10}],
    }))
    assert compare.main([str(a), str(b), "--spec", str(spec)]) == 1
    assert compare.main([str(a), str(a), "--spec", str(spec)]) == 0


# ----------------------------------------------------------------------
# The command itself
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "all.json"
    done = subprocess.run(RUN + ["--all", "--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())["runs"], done.stdout


def test_smoke_runs_every_workload_both_ways(smoke_runs):
    runs, _ = smoke_runs
    seen = {(run["workload"], run["trace"]) for run in runs}
    assert seen == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert run["failed_share"] == 0.0


def test_every_named_metric_is_reported_with_its_unit_and_no_other(smoke_runs):
    runs, stdout = smoke_runs
    for run in runs:
        declared = SPEC["per_layer" if run["trace"] else "end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == {
            name: metric["unit"] for name, metric in run["metrics"].items()
        }
        for name, metric in run["metrics"].items():
            assert isinstance(metric["value"], (int, float))
            assert f"{name} " in stdout
    for metric in SPEC["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs if not run["trace"]]
        assert all(value > 0 for value in values), metric["name"]


def test_every_correctness_check_ran(smoke_runs):
    runs, _ = smoke_runs
    for run in runs:
        expected = TRACED_CHECKS if run["trace"] else EXPECTED_CHECKS[(run["workload"], 0)]
        assert expected <= set(run["checks_ran"]), (run["workload"], run["trace"])
        assert run["checks_failed"] == []


def test_provenance_is_recorded(smoke_runs):
    runs, _ = smoke_runs
    for run in runs:
        provenance = run["provenance"]
        for key in ("git_sha", "git_dirty", "python", "numpy", "nproc", "cpu",
                    "kernel_backend"):
            assert key in provenance
        assert set(provenance["env"]) == {
            "REPRO_METRICS", "REPRO_KERNEL_BACKEND", "REPRO_SANITIZE"}
        assert run["seed"] == 0 and run["profile"]["name"] == "smoke" and run["mix"]


def test_traced_run_writes_a_span_file_and_no_scratch_is_left(smoke_runs):
    trace = json.loads((HERE / "out" / "query_narrow.trace.json").read_text())
    assert trace["columns"] == ["name", "start_s", "end_s", "parent", "request", "self_s"]
    names = {span[0] for span in trace["spans"]}
    assert {"core.replay", "tree.decompose", "tree.drain", "service.router",
            "frontend.rtt"} <= names
    assert not list((HERE / "out").glob("tmp-*"))


def test_last_line_is_the_result_object():
    done = subprocess.run(
        RUN + ["--workload", "query_narrow", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_under_the_sanitizer():
    done = subprocess.run(
        RUN + ["--workload", "query_narrow", "--smoke"], capture_output=True, text=True,
        env={**os.environ, "REPRO_SANITIZE": "1"}, timeout=60,
    )
    assert done.returncode == 2 and "REPRO_SANITIZE" in done.stderr
    assert not done.stdout.strip()


def test_fails_without_the_program(tmp_path):
    # A directory holding only BENCHMARK.json and bench/: nothing to measure.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query_narrow", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
