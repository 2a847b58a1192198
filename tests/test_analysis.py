"""The lint pass (rules R001-R013, noqa, baselines, CLI) and the sanitizer."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import (
    RULES,
    SanitizedIndex,
    apply_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    render_json,
    render_text,
    sanitized,
    write_baseline,
)
from repro.analysis import sanitize
from repro.core import RangePQPlus
from repro.tree import RangeTree

REPO = Path(__file__).resolve().parent.parent
HOT = "src/repro/ivf/_fixture.py"
COLD = "src/repro/eval/_fixture.py"

R001_SRC = textwrap.dedent(
    """
    import numpy as np

    def row_sums(xs):
        arr = np.asarray(xs, dtype=np.float64)
        total = 0.0
        for row in arr:
            total += float(row.sum())
        return total
    """
)

R002_SRC = textwrap.dedent(
    """
    import numpy as np

    def scratch(n):
        return np.zeros(n)
    """
)

R003_SRC = textwrap.dedent(
    """
    def collect(item, seen=[]):
        seen.append(item)
        return seen
    """
)

R004_SRC = textwrap.dedent(
    """
    def guarded(action):
        try:
            return action()
        except Exception:
            return None
    """
)

R005_SRC = textwrap.dedent(
    """
    class Store:
        def __init__(self):
            self.data = {}

        def insert(self, key, value):
            self.data[key] = value
    """
)

SERVICE = "src/repro/service/_fixture.py"

R007_SRC = textwrap.dedent(
    """
    class Service:
        def __init__(self, index):
            self._index = index

        def insert(self, oid, vector, attr):
            self._index.insert(oid, vector, attr)

        def check_invariants(self):
            self._index.check_invariants()
    """
)

R007_GUARDED_SRC = textwrap.dedent(
    """
    class Service:
        def __init__(self, index, lock):
            self._index = index
            self._lock = lock

        def insert(self, oid, vector, attr):
            with self._lock.write_locked():
                self._index.insert(oid, vector, attr)

        def wipe(self):
            with self._mutex:
                self._index.delete_many([])

        def _apply_unlocked(self, oid):
            self._index.delete(oid)

        def check_invariants(self):
            self._index.check_invariants()
    """
)


R006_SRC = textwrap.dedent(
    """
    import numpy as np

    def top_k(distances, k):
        return np.argsort(distances)[:k]
    """
)


R008_SRC = textwrap.dedent(
    """
    import time

    def measure():
        began = time.perf_counter()
        return began
    """
)


R008_ALLOWED_SRC = textwrap.dedent(
    """
    import time
    from time import monotonic

    def wait(deadline_s):
        while monotonic() < deadline_s:
            time.sleep(0.01)
        return time.monotonic()
    """
)


PARALLEL = "src/repro/parallel/_fixture.py"

R009_SRC = textwrap.dedent(
    """
    def ship(queue, index):
        queue.put(index.codes)
    """
)

R009_ALLOWED_SRC = textwrap.dedent(
    """
    def dispatch(task_conn, result_conn, manifest, query, result):
        task_conn.send((1, "search", {"manifest": manifest, "query": query}))
        result_conn.send(("done", 1, 0, 3.5, result))
    """
)


# ----------------------------------------------------------------------
# Each rule fires exactly once on its fixture
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule_id, source, path",
    [
        ("R001", R001_SRC, HOT),
        ("R002", R002_SRC, HOT),
        ("R003", R003_SRC, COLD),
        ("R004", R004_SRC, COLD),
        ("R005", R005_SRC, COLD),
        ("R006", R006_SRC, COLD),
        ("R007", R007_SRC, SERVICE),
        ("R008", R008_SRC, HOT),
        ("R009", R009_SRC, PARALLEL),
    ],
)
def test_each_rule_fires_exactly_once(rule_id, source, path):
    findings = lint_source(source, path)
    assert [f.rule for f in findings] == [rule_id]
    assert findings[0].path == path
    assert findings[0].line > 0
    assert findings[0].text


@pytest.mark.parametrize("source", [R001_SRC, R002_SRC])
def test_hot_rules_stay_silent_off_the_hot_paths(source):
    assert lint_source(source, COLD) == []


def test_syntax_error_reported_as_r000():
    findings = lint_source("def broken(:\n", COLD)
    assert [f.rule for f in findings] == ["R000"]


# ----------------------------------------------------------------------
# noqa escape hatch
# ----------------------------------------------------------------------
def test_rule_specific_noqa_waives_the_finding():
    waived = R006_SRC.replace(
        "np.argsort(distances)[:k]",
        "np.argsort(distances)[:k]  # repro: noqa-R006",
    )
    assert lint_source(waived, COLD) == []


def test_noqa_for_a_different_rule_does_not_waive():
    kept = R006_SRC.replace(
        "np.argsort(distances)[:k]",
        "np.argsort(distances)[:k]  # repro: noqa-R001",
    )
    assert [f.rule for f in lint_source(kept, COLD)] == ["R006"]


def test_bare_noqa_waives_every_rule():
    waived = R003_SRC.replace(
        "def collect(item, seen=[]):",
        "def collect(item, seen=[]):  # repro: noqa",
    )
    assert lint_source(waived, COLD) == []


# ----------------------------------------------------------------------
# Baseline round-trip and the committed repo baseline
# ----------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    findings = lint_source(R003_SRC, COLD) + lint_source(R006_SRC, COLD)
    baseline_file = write_baseline(findings, tmp_path / "baseline.json")
    assert apply_baseline(findings, load_baseline(baseline_file)) == []


def test_baseline_is_a_multiset(tmp_path):
    findings = lint_source(R003_SRC, COLD)
    baseline_file = write_baseline(findings, tmp_path / "baseline.json")
    doubled = findings + findings
    fresh = apply_baseline(doubled, load_baseline(baseline_file))
    assert fresh == findings  # one covered, one fresh


def test_missing_baseline_loads_empty(tmp_path):
    assert not load_baseline(tmp_path / "absent.json")


def test_repo_src_is_clean_against_committed_baseline():
    findings = lint_paths([REPO / "src"], root=REPO)
    fresh = apply_baseline(
        findings, load_baseline(REPO / "lint-baseline.json")
    )
    assert fresh == [], render_text(fresh)


# ----------------------------------------------------------------------
# Reporters and rule catalogue
# ----------------------------------------------------------------------
def test_render_text_clean_and_dirty():
    assert render_text([]) == "lint: clean"
    findings = lint_source(R004_SRC, COLD)
    report = render_text(findings)
    assert "R004" in report and "1 finding(s)" in report


def test_render_json_is_parseable():
    findings = lint_source(R005_SRC, COLD)
    payload = json.loads(render_json(findings))
    assert payload["findings"][0]["rule"] == "R005"


def test_rule_catalogue_covers_r001_to_r013():
    assert [rule.id for rule in RULES] == [
        f"R{n:03d}" for n in range(1, 14)
    ]


R010_SRC = textwrap.dedent(
    """
    from repro.kernels.fast import adc_distances

    def scan(table, codes):
        return adc_distances(table, codes)
    """
)


def test_r010_flags_backend_import_forms():
    forms = [
        "from repro.kernels.reference import adc_distances\n",
        "from ..kernels.fast import stable_order\n",
        "from repro.kernels import fast\n",
        "from ..kernels import reference, fast\n",
        "import repro.kernels.reference\n",
    ]
    for source in forms:
        assert [f.rule for f in lint_source(source, HOT)] == ["R010"], source


def test_r010_allows_dispatcher_import():
    source = "from .. import kernels\n\nfrom repro import kernels as k2\n"
    assert lint_source(source, HOT) == []
    assert lint_source("from ..kernels import stable_order\n", HOT) == []


def test_r010_silent_outside_hot_layers():
    assert lint_source(R010_SRC, COLD) == []
    assert lint_source(R010_SRC, "benchmarks/bench_kernels.py") == []


def test_r010_exempt_inside_kernels_package():
    assert lint_source(R010_SRC, "src/repro/kernels/_fixture.py") == []


def test_r010_applies_to_core_and_tree():
    for path in ("src/repro/core/_fixture.py", "src/repro/tree/_fixture.py"):
        assert [f.rule for f in lint_source(R010_SRC, path)] == ["R010"]


def test_r010_waivable_inline():
    waived = (
        "from repro.kernels.fast import adc_distances  # repro: noqa-R010\n"
    )
    assert lint_source(waived, HOT) == []


def test_r009_silent_outside_parallel_paths():
    assert lint_source(R009_SRC, COLD) == []


def test_r009_allows_manifest_and_result_payloads():
    assert lint_source(R009_ALLOWED_SRC, PARALLEL) == []


def test_r009_flags_keyword_and_submit_forms():
    source = textwrap.dedent(
        """
        def fan_out(pool, store):
            pool.submit(work, codebooks=store.codebooks)
        """
    )
    assert [f.rule for f in lint_source(source, PARALLEL)] == ["R009"]


def test_r007_silent_outside_service_paths():
    assert lint_source(R007_SRC, COLD) == []


def test_r007_guarded_and_exempt_forms_are_silent():
    assert lint_source(R007_GUARDED_SRC, SERVICE) == []


def test_r008_silent_outside_instrumented_modules():
    assert lint_source(R008_SRC, COLD) == []


def test_r008_exempt_inside_obs():
    assert lint_source(R008_SRC, "src/repro/obs/_fixture.py") == []


def test_r008_allows_monotonic_and_sleep():
    assert lint_source(R008_ALLOWED_SRC, SERVICE) == []


def test_r008_flags_bare_perf_counter_import():
    source = textwrap.dedent(
        """
        from time import perf_counter

        def measure():
            return perf_counter()
        """
    )
    assert [f.rule for f in lint_source(source, SERVICE)] == ["R008"]


def test_r007_subscripted_member_is_flagged():
    source = textwrap.dedent(
        '''
        class Router:
            def delete(self, oid):
                self._shards[0].delete(oid)

            def check_invariants(self):
                pass
        '''
    )
    assert [f.rule for f in lint_source(source, SERVICE)] == ["R007"]


def test_r007_own_api_call_not_flagged():
    source = textwrap.dedent(
        '''
        class Service:
            def insert_many(self, ids, vectors, attrs):
                for oid, vec, attr in zip(ids, vectors, attrs):
                    self.insert(oid, vec, attr)

            def check_invariants(self):
                pass
        '''
    )
    assert lint_source(source, SERVICE) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _run_cli(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def test_cli_reports_findings_and_exits_nonzero(tmp_path):
    (tmp_path / "bad.py").write_text(R003_SRC)
    result = _run_cli("bad.py", "--no-baseline", cwd=tmp_path)
    assert result.returncode == 1
    assert "R003" in result.stdout


def test_cli_json_format(tmp_path):
    (tmp_path / "bad.py").write_text(R004_SRC)
    result = _run_cli("bad.py", "--no-baseline", "--format", "json", cwd=tmp_path)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["findings"][0]["rule"] == "R004"


def test_cli_clean_file_exits_zero(tmp_path):
    (tmp_path / "fine.py").write_text('"""Nothing to see."""\n')
    result = _run_cli("fine.py", "--no-baseline", cwd=tmp_path)
    assert result.returncode == 0
    assert "lint: clean" in result.stdout


def test_cli_list_rules(tmp_path):
    result = _run_cli("--list-rules", cwd=tmp_path)
    assert result.returncode == 0
    for number in range(1, 7):
        assert f"R{number:03d}" in result.stdout


def test_cli_write_then_gate(tmp_path):
    (tmp_path / "bad.py").write_text(R006_SRC)
    wrote = _run_cli("bad.py", "--write-baseline", cwd=tmp_path)
    assert wrote.returncode == 0
    gated = _run_cli("bad.py", "--baseline", cwd=tmp_path)
    assert gated.returncode == 0, gated.stdout


def test_cli_prune_baseline_drops_stale_entries(tmp_path):
    (tmp_path / "bad.py").write_text(R006_SRC)
    _run_cli("bad.py", "--write-baseline", cwd=tmp_path)
    # Fix the file: every baseline entry becomes stale.
    (tmp_path / "bad.py").write_text("x = 1\n")
    pruned = _run_cli("bad.py", "--prune-baseline", cwd=tmp_path)
    assert pruned.returncode == 0
    assert "dropped" in pruned.stdout
    payload = json.loads((tmp_path / "lint-baseline.json").read_text())
    assert payload["findings"] == []


def test_cli_prune_baseline_keeps_live_entries(tmp_path):
    (tmp_path / "bad.py").write_text(R006_SRC)
    _run_cli("bad.py", "--write-baseline", cwd=tmp_path)
    before = json.loads((tmp_path / "lint-baseline.json").read_text())
    pruned = _run_cli("bad.py", "--prune-baseline", cwd=tmp_path)
    assert pruned.returncode == 0
    after = json.loads((tmp_path / "lint-baseline.json").read_text())
    assert after == before


# ----------------------------------------------------------------------
# R004 regression: over-broad excepts hidden in tuples / attributes
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "clause",
    [
        "except (Exception,):",
        "except (ValueError, Exception):",
        "except builtins.Exception:",
        "except (ValueError, builtins.BaseException):",
    ],
)
def test_r004_flags_tuple_and_attribute_excepts(clause):
    src = textwrap.dedent(
        f"""
        import builtins

        def load():
            try:
                return open("f")
            {clause}
                return None
        """
    )
    findings = lint_source(src, COLD)
    assert [f.rule for f in findings] == ["R004"]


def test_r004_narrow_tuple_is_clean():
    src = textwrap.dedent(
        """
        def load():
            try:
                return open("f")
            except (ValueError, OSError):
                return None
        """
    )
    assert not [f for f in lint_source(src, COLD) if f.rule == "R004"]


# ----------------------------------------------------------------------
# Sanitizer: proxy wrapper
# ----------------------------------------------------------------------
def _small_plus_index(n=300, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    attrs = rng.uniform(0.0, 100.0, size=n)
    return RangePQPlus.build(vectors, attrs, num_subspaces=4, seed=seed), rng


def test_sanitized_wrapper_counts_and_forwards():
    index, rng = _small_plus_index()
    wrapper = sanitized(index, every=1)
    assert wrapper.wrapped is index
    assert len(wrapper) == len(index)
    wrapper.insert(10_000, rng.normal(size=8), 55.0)
    wrapper.delete(10_000)
    assert wrapper.mutation_count == 2
    assert 10_000 not in wrapper
    result = wrapper.query(rng.normal(size=8), 10.0, 90.0, 5)
    assert len(result.ids) == 5


def test_sanitized_requires_check_invariants():
    with pytest.raises(TypeError):
        sanitized(object())


def test_sanitizer_catches_corrupted_subtree_aggregate():
    index, rng = _small_plus_index()
    wrapper = sanitized(index, every=1)
    node = index.root
    cluster = next(iter(node.num))
    node.num[cluster] += 1  # drift the aggregate away from its leaves
    with pytest.raises(AssertionError):
        wrapper.insert(10_000, rng.normal(size=8), 55.0)


def test_sanitizer_catches_drifted_cluster_run():
    tree = RangeTree()
    tree.build([(float(i), i, i % 3) for i in range(40)])
    wrapper = sanitized(tree, every=1)
    attrs, oids = tree.runs[1]
    oids[0], oids[1] = oids[1], oids[0]  # run no longer in (attr, oid) order
    with pytest.raises(AssertionError, match="runs differ"):
        wrapper.insert(100.0, 100, 0)


def test_sanitizer_catches_balance_violation():
    tree = RangeTree()
    tree._maintain = lambda node: node  # disable repairs: tree degenerates
    wrapper = sanitized(tree, every=1)
    with pytest.raises(AssertionError):
        for step in range(16):
            wrapper.insert(float(step), step, 0)


# ----------------------------------------------------------------------
# Sanitizer: global install
# ----------------------------------------------------------------------
@pytest.fixture
def clean_sanitizer():
    """Start from an uninstalled sanitizer; restore the prior state after.

    Under ``REPRO_SANITIZE=1`` the whole suite runs with the sanitizer
    installed at import time — these tests must not leave it torn down.
    """
    was_installed = bool(sanitize._installed)
    sanitize.uninstall()
    yield
    sanitize.uninstall()
    if was_installed:
        sanitize.install()


def test_install_and_uninstall_patch_registered_mutators(clean_sanitizer):
    original = RangeTree.__dict__["insert"]
    sanitize.install(every=1)
    try:
        assert getattr(RangeTree.insert, "__repro_sanitized__", False)
        tree = RangeTree()
        for step in range(8):
            tree.insert(float(step), step, 0)
        assert tree._sanitize_mutations == 8
    finally:
        sanitize.uninstall()
    assert RangeTree.__dict__["insert"] is original


def test_install_is_idempotent(clean_sanitizer):
    sanitize.install(every=1)
    patched = RangeTree.__dict__["insert"]
    sanitize.install(every=1)
    assert RangeTree.__dict__["insert"] is patched


def test_env_variable_installs_at_import_time():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), REPRO_SANITIZE="1")
    probe = (
        "import repro\n"
        "from repro.tree.wbt import RangeTree\n"
        "assert getattr(RangeTree.insert, '__repro_sanitized__', False)\n"
        "print('sanitized')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "sanitized" in result.stdout


#: Classes with a ``check_invariants`` that ``install`` must not patch.
#: ``ClusterCoordinator``'s check queries the shard primaries and is only
#: meaningful while no writes are in flight, so it cannot run after each
#: mutation.
UNSANITIZED = {("repro.cluster.coordinator", "ClusterCoordinator")}


def test_registry_lists_every_audited_class_and_its_own_mutators():
    # ``install`` skips a listed method the class does not define itself,
    # so a renamed or inherited mutator would go unaudited without a sound.
    expected = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != info.name:
                continue
            if "check_invariants" not in cls.__dict__:
                continue
            if (info.name, name) in UNSANITIZED:
                continue
            expected[(info.name, name)] = sanitize.MUTATOR_NAMES & set(
                cls.__dict__
            )
    registry = {
        (module, name): set(methods)
        for module, name, methods in sanitize.REGISTRY
    }
    assert registry == expected


# ----------------------------------------------------------------------
# R011: blocking primitives inside frontend coroutine bodies
# ----------------------------------------------------------------------

FRONTEND = "src/repro/frontend/_fixture.py"


def test_r011_flags_blocking_primitives_in_coroutines():
    forms = [
        "async def f():\n    time.sleep(1)\n",
        "async def f(self):\n    self._mutex.acquire()\n",
        "async def f(self):\n    self._slot_lock.acquire(blocking=True)\n",
        "async def f():\n    sock = socket.create_connection(('h', 1))\n",
        "async def f():\n    data = open('x').read()\n",
    ]
    for source in forms:
        assert [f.rule for f in lint_source(source, FRONTEND)] == [
            "R011"
        ], source


def test_r011_allows_nonblocking_and_awaited_forms():
    ok = [
        "async def f():\n    await asyncio.sleep(1)\n",
        "async def f(self):\n    self._mutex.acquire(blocking=False)\n",
        "async def f(self):\n    got = lock.acquire(False)\n",
        "async def f(self):\n    self.sock_name = 'x'\n",
    ]
    for source in ok:
        assert lint_source(source, FRONTEND) == [], source


def test_r011_exempts_sync_functions_and_nested_defs():
    # A sync function may block (it runs on an executor thread), and a
    # def nested inside a coroutine is an executor payload by contract.
    ok = [
        "def f():\n    time.sleep(1)\n",
        (
            "async def f(self):\n"
            "    def work():\n"
            "        time.sleep(1)\n"
            "    await loop.run_in_executor(None, work)\n"
        ),
    ]
    for source in ok:
        assert lint_source(source, FRONTEND) == [], source


def test_r011_silent_outside_frontend():
    source = "async def f():\n    time.sleep(1)\n"
    assert lint_source(source, COLD) == []
    assert lint_source(source, HOT) == []


def test_r011_waivable_inline():
    waived = "async def f():\n    time.sleep(1)  # repro: noqa-R011\n"
    assert lint_source(waived, FRONTEND) == []


# ----------------------------------------------------------------------
# R012: raw socket imports outside the sanctioned network layers
# ----------------------------------------------------------------------

CLUSTER = "src/repro/cluster/_fixture.py"


def test_r012_flags_socket_import_outside_network_layers():
    forms = [
        "import socket\n",
        "import socket as net\n",
        "from socket import create_connection\n",
    ]
    for source in forms:
        for path in (HOT, COLD):
            assert [f.rule for f in lint_source(source, path)] == [
                "R012"
            ], (source, path)


def test_r012_allows_cluster_and_frontend():
    for path in (CLUSTER, FRONTEND):
        assert lint_source("import socket\n", path) == []
        assert lint_source("from socket import socketpair\n", path) == []


def test_r012_ignores_unrelated_imports():
    ok = [
        "import socketserver\n",  # a different module, not a socket alias
        "import struct\n",
    ]
    for source in ok:
        assert lint_source(source, COLD) == [], source


def test_r012_waivable_inline():
    waived = "import socket  # repro: noqa-R012\n"
    assert lint_source(waived, COLD) == []


# ----------------------------------------------------------------------
# R013: direct writes to controller-managed knobs outside repro/control/
# ----------------------------------------------------------------------

CONTROL = "src/repro/control/_fixture.py"


def test_r013_flags_knob_writes_in_serving_layers():
    forms = [
        "def swap(self, policy):\n    self._index.l_policy = policy\n",
        "def tune(self):\n    self.policy.l_base = 32\n",
        "def widen(self):\n    self._policy.r_base += 0.1\n",
        "def probe(self):\n    self.index.nprobe = 8\n",
        "def window(self):\n    self._override_ms = 2.0\n",
        "def ann(self):\n    self.l_base: int = 4\n",
    ]
    for source in forms:
        for path in (SERVICE, FRONTEND, CLUSTER):
            assert [f.rule for f in lint_source(source, path)] == [
                "R013"
            ], (source, path)


def test_r013_exempts_init_control_and_other_layers():
    init = (
        "class P:\n"
        "    def __init__(self):\n"
        "        self._override_ms = None\n"
        "        self.l_base = 16\n"
    )
    assert lint_source(init, SERVICE) == []
    write = "def swap(self, policy):\n    self._index.l_policy = policy\n"
    assert lint_source(write, CONTROL) == []
    assert lint_source(write, COLD) == []
    assert lint_source(write, HOT) == []


def test_r013_ignores_reads_and_unrelated_attributes():
    ok = [
        "def get(self):\n    return self._index.l_policy\n",
        "def use(self):\n    value = self.policy.l_base + 1\n",
        "def other(self):\n    self.l_bases = [1]\n",
        "def local(self):\n    l_base = 4\n",
    ]
    for source in ok:
        assert lint_source(source, SERVICE) == [], source


def test_r013_waivable_inline():
    waived = (
        "def swap(self, policy):\n"
        "    self._index.l_policy = policy  # repro: noqa-R013\n"
    )
    assert lint_source(waived, SERVICE) == []
