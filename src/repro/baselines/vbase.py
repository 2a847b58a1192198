"""VBase baseline: iterator-model search with relaxed monotonicity.

VBase (OSDI'23) unifies vector search with relational predicates through the
iterator (``Next``) model: it traverses the ANN index in approximate
nearest-first order, applies the range predicate to each traversed object,
and terminates once *relaxed monotonicity* indicates the traversal is
steadily moving away from the query — avoiding the k' guessing game of
post-filtering systems.

This reimplementation runs the iterator over the shared IVFPQ substrate
(clusters nearest-first, members ADC-sorted within a cluster — see
:meth:`repro.ivf.IVFPQIndex.iter_candidates`) and implements relaxed
monotonicity as: once ``k`` in-range results are held, stop when the median
approximate distance over the last ``window`` traversed objects exceeds the
current ``k``-th best distance.  Like the real system, a cost-based plan
switch routes very selective ranges to an attribute-index scan instead
(VBase "creates an index for attributes to expedite filtering" and uses
cost-based plan selection).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from ..core.results import QueryResult, QueryStats
from ..ivf import IVFPQIndex
from ..quantization import squared_l2
from .base import AttributeDirectory, BatchSearchMixin

__all__ = ["VBaseIndex"]


class VBaseIndex(BatchSearchMixin):
    """Iterator-model range-filtered ANN with relaxed monotonicity.

    Args:
        ivf: A trained :class:`~repro.ivf.IVFPQIndex`.
        scan_selectivity: Coverage below which the planner chooses the
            attribute-index scan over raw vectors.
        window: Size of the sliding window used by the relaxed-monotonicity
            termination check.
        patience: Minimum traversed objects before termination may fire
            (guards the very first window).
    """

    def __init__(
        self,
        ivf: IVFPQIndex,
        *,
        scan_selectivity: float = 0.02,
        window: int = 32,
        patience: int = 64,
    ) -> None:
        if not ivf.is_trained:
            raise ValueError("IVFPQIndex must be trained before wrapping")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.ivf = ivf
        self.scan_selectivity = scan_selectivity
        self.window = window
        self.patience = patience
        self.directory = AttributeDirectory()
        # VBase is a relational system: base tuples (raw vectors) live in the
        # table heap.  They back the low-selectivity scan plan and are
        # counted as data, not index, in the Fig. 8 memory model.
        self._vectors: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        attrs: Sequence[float],
        *,
        ids: Sequence[int] | None = None,
        num_subspaces: int | None = None,
        num_clusters: int | None = None,
        num_codewords: int = 256,
        seed: int | None = None,
        ivf: IVFPQIndex | None = None,
        **kwargs,
    ) -> "VBaseIndex":
        """Train the substrate and bulk-load a dataset."""
        vectors = np.asarray(vectors, dtype=np.float64)
        n, dim = vectors.shape
        if len(attrs) != n:
            raise ValueError(f"{n} vectors but {len(attrs)} attribute values")
        if ids is None:
            ids = range(n)
        ids = list(ids)
        if ivf is None:
            if num_subspaces is None:
                num_subspaces = max(1, dim // 4)
            ivf = IVFPQIndex(
                num_subspaces,
                num_clusters=num_clusters,
                num_codewords=num_codewords,
                seed=seed,
            )
            ivf.train(vectors)
        ivf.add(ids, vectors)
        index = cls(ivf, **kwargs)
        for oid, vector, attr in zip(ids, vectors, attrs):
            index.directory.add(oid, attr)
            index._vectors[oid] = vector
        return index

    # ------------------------------------------------------------------
    # Introspection / updates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.directory)

    def __contains__(self, oid: int) -> bool:
        return oid in self.directory

    def insert(self, oid: int, vector: np.ndarray, attr: float) -> None:
        """Insert one object into heap, attribute index, and ANN index."""
        self.directory.add(oid, attr)  # raises KeyError on duplicates
        vector = np.asarray(vector, dtype=np.float64)
        self.ivf.add([oid], vector[None, :])
        self._vectors[oid] = vector.copy()

    def delete(self, oid: int) -> None:
        """Delete one object from all three structures."""
        self.directory.remove(oid)  # raises KeyError if absent
        self.ivf.remove([oid])
        del self._vectors[oid]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, query_vector: np.ndarray, lo: float, hi: float, k: int
    ) -> QueryResult:
        """Range-filtered top-``k`` with cost-based plan selection."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query_vector = np.asarray(query_vector, dtype=np.float64)
        stats = QueryStats()
        in_range = self.directory.count_in_range(lo, hi)
        stats.num_in_range = in_range
        if in_range == 0:
            return QueryResult.empty(stats)
        coverage = in_range / max(len(self), 1)
        if coverage <= self.scan_selectivity:
            return self._scan_plan(query_vector, lo, hi, k, stats)
        return self._iterator_plan(query_vector, lo, hi, k, stats)

    def _scan_plan(
        self, query: np.ndarray, lo: float, hi: float, k: int, stats: QueryStats
    ) -> QueryResult:
        """Low-selectivity plan: exact scan of the in-range raw vectors."""
        ids = self.directory.ids_in_range(lo, hi)
        vectors = np.stack([self._vectors[int(oid)] for oid in ids])
        distances = squared_l2(vectors, query)
        stats.num_candidates = len(ids)
        k = min(k, len(ids))
        part = (
            np.argpartition(distances, k - 1)[:k]
            if k < len(distances)
            else np.arange(len(distances))
        )
        order = part[np.argsort(distances[part], kind="stable")]
        return QueryResult(
            ids=ids[order].astype(np.int64), distances=distances[order], stats=stats
        )

    def _iterator_plan(
        self, query: np.ndarray, lo: float, hi: float, k: int, stats: QueryStats
    ) -> QueryResult:
        """Iterator plan: Next-driven traversal with relaxed monotonicity."""
        results: list[tuple[float, int]] = []
        worst_kept = np.inf
        recent: deque[float] = deque(maxlen=self.window)
        traversed = 0
        probed_clusters = 0
        for oid, distance in self.ivf.iter_candidates(query):
            traversed += 1
            recent.append(distance)
            attr = self.directory.attribute_of(oid)
            if lo <= attr <= hi:
                results.append((distance, oid))
                if len(results) >= k:
                    results.sort()
                    results = results[:k]
                    worst_kept = results[-1][0]
            # Relaxed monotonicity: the traversal has k answers and its
            # recent distances consistently exceed the worst kept answer.
            if (
                len(results) >= k
                and traversed >= self.patience
                and len(recent) == self.window
                and float(np.median(recent)) > worst_kept
            ):
                break
        stats.num_candidates = traversed
        stats.num_candidate_clusters = probed_clusters
        if not results:
            return QueryResult.empty(stats)
        results.sort()
        results = results[:k]
        return QueryResult(
            ids=np.asarray([oid for _, oid in results], dtype=np.int64),
            distances=np.asarray([dist for dist, _ in results]),
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Invariant checking (sanitizer hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify heap, attribute index, and ANN index stay in lockstep."""
        self.directory.check_invariants()
        self.ivf.check_invariants()
        assert len(self.directory) == len(self._vectors) == len(self.ivf), (
            "heap, directory, and IVF disagree on object count"
        )
        for oid in self._vectors:
            assert oid in self.directory, f"heap object {oid} not in directory"
            assert oid in self.ivf, f"heap object {oid} missing from the IVF"

    # ------------------------------------------------------------------
    # Memory model
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Index memory: IVFPQ storage, a 4 B inverted-list entry per object
        (the iterator reads per-cluster members) and the attribute index
        (heap excluded)."""
        return (
            self.ivf.memory_bytes() + 4 * len(self.ivf) + self.directory.memory_bytes()
        )
