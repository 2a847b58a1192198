"""Runtime index sanitizer: auto-audit ``check_invariants`` under mutation.

Dynamic structures rot silently under mixed insert/delete workloads — a
drifted subtree aggregate or a missed rebuild trigger returns *plausible but
wrong* query results long before anything crashes.  This module turns every
index's ``check_invariants`` into an always-on audit:

* :func:`sanitized` wraps one index so every mutation (or every ``N``-th)
  re-verifies balance bounds, aggregate sums against leaf recomputation,
  rebuild-trigger accounting, and bucket-boundary monotonicity.
* :func:`install` patches the mutators of *every* registered index class in
  place; ``REPRO_SANITIZE=1`` in the environment applies it at import time
  (``REPRO_SANITIZE_EVERY=N`` tunes the audit period, default
  :data:`DEFAULT_AUDIT_EVERY`), so the whole test suite runs sanitized
  without a single call-site change.

Nested mutators (``RangePQ.insert`` → ``RangeTree.insert`` → rebuild) audit
only at the outermost frame — inner structures are mid-flight and allowed to
be temporarily inconsistent.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from typing import Callable, Sequence

__all__ = [
    "DEFAULT_AUDIT_EVERY",
    "SanitizedIndex",
    "sanitized",
    "install",
    "uninstall",
    "sanitize_enabled",
    "REGISTRY",
]

#: Default number of mutations between audits when installed globally.
DEFAULT_AUDIT_EVERY = 64

#: Mutator method names intercepted by :class:`SanitizedIndex`.
MUTATOR_NAMES = frozenset(
    {
        "insert",
        "insert_many",
        "insert_batch",
        "upsert",
        "delete",
        "delete_many",
        "add",
        "remove",
        "flush",
    }
)

#: ``(module, class, mutator methods)`` patched by :func:`install`.
REGISTRY: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("repro.core.rangepq", "RangePQ",
     ("insert", "insert_many", "delete", "delete_many")),
    ("repro.core.rangepq_plus", "RangePQPlus",
     ("insert", "insert_many", "delete", "delete_many")),
    ("repro.ivf.ivfpq", "IVFPQIndex", ("add", "remove")),
    ("repro.ivf.residual", "ResidualIVFPQIndex", ("add",)),
    ("repro.tree.wbt", "RangeTree", ("insert", "delete")),
    ("repro.baselines.base", "AttributeDirectory", ("add", "remove")),
    ("repro.baselines.bruteforce", "BruteForceRangeIndex",
     ("insert", "delete")),
    ("repro.baselines.milvus_like", "MilvusLikeIndex",
     ("insert", "delete", "flush")),
    ("repro.baselines.rii", "RIIIndex", ("insert", "delete")),
    ("repro.baselines.vbase", "VBaseIndex", ("insert", "delete")),
    ("repro.service.engine", "IndexService",
     ("insert", "insert_many", "delete", "delete_many")),
    ("repro.service.engine", "GlobalLockService", ("insert", "delete")),
    ("repro.service.router", "RangeShardedService", ("insert", "delete")),
)

_depth = threading.local()
_installed: list[tuple[type, str, Callable]] = []


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests global sanitation."""
    return os.environ.get("REPRO_SANITIZE", "").lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def _audit_every() -> int:
    try:
        return max(1, int(os.environ["REPRO_SANITIZE_EVERY"]))
    except (KeyError, ValueError):
        return DEFAULT_AUDIT_EVERY


def _enter() -> int:
    depth = getattr(_depth, "value", 0)
    _depth.value = depth + 1
    return depth


def _exit(depth: int) -> None:
    _depth.value = depth


def _wrap_mutator(method: Callable, every: int) -> Callable:
    """Wrap one mutator so the outermost successful call audits every Nth."""

    @functools.wraps(method)
    def audited(self, *args, **kwargs):
        depth = _enter()
        try:
            result = method(self, *args, **kwargs)
        finally:
            _exit(depth)
        if depth == 0:
            count = getattr(self, "_sanitize_mutations", 0) + 1
            self._sanitize_mutations = count
            if count % every == 0:
                self.check_invariants()
        return result

    audited.__repro_sanitized__ = True  # type: ignore[attr-defined]
    return audited


def install(every: int | None = None) -> None:
    """Patch every registered index class to self-audit under mutation.

    Idempotent; :func:`uninstall` restores the original methods.

    Args:
        every: Mutations between audits (default: ``REPRO_SANITIZE_EVERY``
            or :data:`DEFAULT_AUDIT_EVERY`).
    """
    if _installed:
        return
    period = every if every is not None else _audit_every()
    for module_name, class_name, methods in REGISTRY:
        module = importlib.import_module(module_name)
        cls = getattr(module, class_name)
        for name in methods:
            original = cls.__dict__.get(name)
            if original is None or getattr(
                original, "__repro_sanitized__", False
            ):
                continue
            setattr(cls, name, _wrap_mutator(original, period))
            _installed.append((cls, name, original))


def uninstall() -> None:
    """Undo :func:`install`, restoring the unwrapped mutators."""
    while _installed:
        cls, name, original = _installed.pop()
        setattr(cls, name, original)


class SanitizedIndex:
    """Transparent proxy auditing one index's invariants under mutation.

    Every attribute access is forwarded to the wrapped index; calls to
    mutator methods (:data:`MUTATOR_NAMES`) additionally run
    ``check_invariants`` after every ``every``-th successful mutation.

    Args:
        index: Any object exposing ``check_invariants``.
        every: Mutations between audits (default 1: audit every mutation).
    """

    def __init__(self, index, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if not callable(getattr(index, "check_invariants", None)):
            raise TypeError(
                f"{type(index).__name__} has no check_invariants method"
            )
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_every", every)
        object.__setattr__(self, "_mutations", 0)

    @property
    def wrapped(self):
        """The underlying index."""
        return self._index

    @property
    def mutation_count(self) -> int:
        """Mutations observed through this proxy."""
        return self._mutations

    def __getattr__(self, name: str):
        value = getattr(self._index, name)
        if name in MUTATOR_NAMES and callable(value):

            @functools.wraps(value)
            def audited(*args, **kwargs):
                result = value(*args, **kwargs)
                count = self._mutations + 1
                object.__setattr__(self, "_mutations", count)
                if count % self._every == 0:
                    self._index.check_invariants()
                return result

            return audited
        return value

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, oid) -> bool:
        return oid in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedIndex({self._index!r}, every={self._every})"


def sanitized(index, *, every: int = 1) -> SanitizedIndex:
    """Wrap ``index`` in a :class:`SanitizedIndex` auditing proxy."""
    return SanitizedIndex(index, every=every)
