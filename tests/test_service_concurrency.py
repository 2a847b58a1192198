"""Concurrency stress test: N readers + 1 writer over IndexService.

Every read returns the snapshot version it observed; afterwards a serial
oracle — an identically built index replaying the same committed op
sequence — recomputes what each (query, range) must return at that exact
version.  With a full retrieval budget the result is a pure function of
the live object set, so any mismatch means a read observed a torn or
non-serializable state.  Runs under ``REPRO_SANITIZE=1`` in CI, where the
maintenance daemon additionally audits invariants mid-run.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import RangePQ
from repro.service import IndexService, MaintenanceDaemon

BUILD = dict(num_subspaces=4, num_clusters=8, num_codewords=16, seed=3)
DIM = 16
N_BASE = 300
N_OPS = 120
N_READERS = 4
FULL_BUDGET = 10**6
QUERY_POOL = 3
RANGES = [(10.0, 90.0), (25.0, 45.0), (0.0, 100.0)]


@pytest.fixture(scope="module")
def base_data():
    rng = np.random.default_rng(17)
    vectors = rng.standard_normal((N_BASE, DIM))
    attrs = rng.random(N_BASE) * 100.0
    queries = rng.standard_normal((QUERY_POOL, DIM))
    return vectors, attrs, queries


def make_ops(rng: np.random.Generator) -> list[tuple]:
    """A deterministic op tape: mixed inserts and deletes of own inserts."""
    ops: list[tuple] = []
    live_new: list[int] = []
    next_oid = 50_000
    deletable_base = list(range(N_BASE))
    for _ in range(N_OPS):
        choice = rng.random()
        if choice < 0.5 or not (live_new or deletable_base):
            ops.append(
                (
                    "insert",
                    next_oid,
                    rng.standard_normal(DIM),
                    float(rng.random() * 100.0),
                )
            )
            live_new.append(next_oid)
            next_oid += 1
        elif choice < 0.75 and deletable_base:
            victim = deletable_base.pop(int(rng.integers(len(deletable_base))))
            ops.append(("delete", victim))
        else:
            pool = live_new if live_new else deletable_base
            victim = pool.pop(int(rng.integers(len(pool))))
            ops.append(("delete", victim))
    return ops


def apply_op(index_like, op: tuple) -> None:
    if op[0] == "insert":
        _, oid, vector, attr = op
        index_like.insert(oid, vector, attr)
    else:
        index_like.delete(op[1])


def _equivalent(ids, distances, want_ids, want_distances) -> bool:
    """Result equality up to permutation of ADC-distance ties.

    Rebuild timing differs between the service (background daemon) and the
    oracle (inline), so candidate enumeration order — and hence which member
    of an exact-tie group fills the last slots — may differ.  The distance
    profile and every id strictly inside the top-k must still match.
    """
    if len(ids) != len(want_ids):
        return False
    if not np.allclose(distances, want_distances, rtol=1e-12, atol=0):
        return False
    if len(ids) == 0:
        return True
    strict = want_distances < want_distances[-1]
    return set(ids[strict].tolist()) == set(want_ids[strict].tolist())


def test_readers_observe_consistent_snapshots(base_data):
    vectors, attrs, queries = base_data
    index = RangePQ.build(vectors, attrs, **BUILD)
    ops = make_ops(np.random.default_rng(23))

    service = IndexService(index, defer_maintenance=True)
    observations: list[tuple[int, int, int, np.ndarray, np.ndarray]] = []
    observations_mutex = threading.Lock()
    writer_done = threading.Event()
    errors: list[BaseException] = []

    def reader(thread_number: int) -> None:
        rng = np.random.default_rng(100 + thread_number)
        local = []
        try:
            while not writer_done.is_set():
                qi = int(rng.integers(QUERY_POOL))
                ri = int(rng.integers(len(RANGES)))
                lo, hi = RANGES[ri]
                result, version = service.query_versioned(
                    queries[qi], lo, hi, k=10, l_budget=FULL_BUDGET
                )
                local.append(
                    (version, qi, ri, result.ids, result.distances)
                )
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)
        with observations_mutex:
            observations.extend(local)

    def writer() -> None:
        try:
            for op in ops:
                apply_op(service, op)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)
        finally:
            writer_done.set()

    with MaintenanceDaemon(service, interval_s=0.005):
        threads = [
            threading.Thread(target=reader, args=(t,))
            for t in range(N_READERS)
        ] + [threading.Thread(target=writer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)

    assert not errors, errors
    assert service.version == N_OPS
    assert len(observations) > 0
    service.check_invariants()

    # ------------------------------------------------------------------
    # Serial oracle: identical build + identical tape => at version v the
    # live set (and hence every full-budget result) is fully determined.
    # ------------------------------------------------------------------
    oracle = RangePQ.build(vectors, attrs, **BUILD)
    expected_cache: dict[tuple[int, int, int], tuple] = {}
    oracle_version = 0
    violations = []
    for version, qi, ri, ids, distances in sorted(
        observations, key=lambda o: o[0]
    ):
        assert 0 <= version <= N_OPS
        while oracle_version < version:
            apply_op(oracle, ops[oracle_version])
            oracle_version += 1
        key = (version, qi, ri)
        if key not in expected_cache:
            lo, hi = RANGES[ri]
            want = oracle.query(
                queries[qi], lo, hi, k=10, l_budget=FULL_BUDGET
            )
            expected_cache[key] = (want.ids, want.distances)
        want_ids, want_distances = expected_cache[key]
        if not _equivalent(ids, distances, want_ids, want_distances):
            violations.append((key, ids.tolist(), want_ids.tolist()))
    assert not violations, (
        f"{len(violations)} reads diverged from the serial oracle; "
        f"first: {violations[0]}"
    )

    # The run exercised reads at more than one committed version.
    versions_seen = {o[0] for o in observations}
    assert len(versions_seen) > 1
    assert service.stats.reads == len(observations)
