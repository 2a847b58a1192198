"""IVF-Flat: inverted-file search over raw (unquantized) vectors.

The second standard IVF configuration real systems ship (Milvus's
``IVF_FLAT`` next to ``IVF_PQ``): the same coarse clustering and probe
logic as :class:`~repro.ivf.IVFPQIndex`, but candidates are scored with
*exact* distances on stored float vectors.  It trades ~`4d`× the code
memory for zero quantization error, which makes it the clean instrument
for separating the two error sources in any IVF result: recall lost to
*probing* (missed clusters — present here too) vs recall lost to
*quantization* (absent here).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..quantization import squared_l2
from .coarse import CoarseQuantizer, default_num_clusters
from .ivfpq import (
    IVFSearchResult,
    _InvertedList,
    _reject_repeated_ids,
    _top_k,
)

__all__ = ["IVFFlatIndex"]


class IVFFlatIndex:
    """Dynamic inverted-file index over raw vectors (exact in-cluster scoring).

    Args:
        num_clusters: ``K``; defaults to ``⌈√n⌉`` of the training set.
        seed: Seed for the coarse k-means.
    """

    def __init__(
        self, *, num_clusters: int | None = None, seed: int | None = None
    ) -> None:
        self._requested_clusters = num_clusters
        self.coarse: CoarseQuantizer | None = None
        self.seed = seed
        self._vectors = np.empty((0, 0), dtype=np.float64)
        # Deliberately int32 in core (small cluster ids, half the memory);
        # widened to the int64 contract at the shm publish boundary.
        self._clusters = np.empty(0, dtype=np.int32)  # repro: noqa-D001
        self._row_of: dict[int, int] = {}
        self._oid_of_row = np.empty(0, dtype=np.int64)
        self._free_rows: list[int] = []
        self._lists: list[_InvertedList] = []

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has been called."""
        return self.coarse is not None

    @property
    def num_clusters(self) -> int:
        """``K``, the coarse cluster count."""
        if self.coarse is None:
            raise RuntimeError("index is not trained")
        return self.coarse.num_clusters

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, oid: int) -> bool:
        return oid in self._row_of

    # ------------------------------------------------------------------
    # Training / storage
    # ------------------------------------------------------------------
    def train(
        self,
        training_vectors: np.ndarray,
        *,
        max_iter: int = 20,
        max_training_points: int | None = 50000,
    ) -> "IVFFlatIndex":
        """Fit the coarse quantizer (no vectors are added)."""
        training_vectors = np.asarray(training_vectors, dtype=np.float64)
        k = self._requested_clusters or default_num_clusters(len(training_vectors))
        self.coarse = CoarseQuantizer(k, seed=self.seed).fit(
            training_vectors,
            max_iter=max_iter,
            max_training_points=max_training_points,
        )
        self._lists = [_InvertedList() for _ in range(k)]
        self._vectors = np.empty((0, training_vectors.shape[1]), dtype=np.float64)
        return self

    def _grow(self, extra: int, dim: int) -> None:
        needed = len(self._oid_of_row) - len(self._free_rows) + extra
        capacity = len(self._oid_of_row)
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity, 16)
        grown = np.empty((new_capacity, dim), dtype=np.float64)
        grown[:capacity] = self._vectors
        self._vectors = grown
        self._clusters = np.concatenate(
            [self._clusters, np.full(new_capacity - capacity, -1, dtype=np.int32)]
        )
        self._oid_of_row = np.concatenate(
            [self._oid_of_row, np.full(new_capacity - capacity, -1, dtype=np.int64)]
        )
        self._free_rows.extend(range(new_capacity - 1, capacity - 1, -1))

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> np.ndarray:
        """Insert vectors under the given (fresh) object IDs."""
        if self.coarse is None:
            raise RuntimeError("index is not trained; call train() first")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        ids = list(ids)
        if len(ids) != vectors.shape[0]:
            raise ValueError(f"{len(ids)} ids but {vectors.shape[0]} vectors")
        for oid in ids:
            if oid in self._row_of:
                raise KeyError(f"object {oid} already present")
        _reject_repeated_ids(ids)
        clusters = self.coarse.assign(vectors)
        self._grow(len(ids), vectors.shape[1])
        for oid, cluster, vector in zip(ids, clusters, vectors):
            row = self._free_rows.pop()
            self._row_of[oid] = row
            self._oid_of_row[row] = oid
            self._clusters[row] = cluster
            self._vectors[row] = vector
            self._lists[int(cluster)].add(oid)
        return clusters.astype(np.int32)  # repro: noqa-D001 — in-core plane is int32 by design

    def remove(self, ids: Iterable[int]) -> None:
        """Delete the given object IDs (KeyError if any is absent)."""
        for oid in ids:
            row = self._row_of.pop(oid)
            self._lists[int(self._clusters[row])].remove(oid)
            self._clusters[row] = -1
            self._oid_of_row[row] = -1
            self._free_rows.append(row)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        allowed_mask: np.ndarray | None = None,
    ) -> IVFSearchResult:
        """Top-``k`` with exact distances inside the probed clusters."""
        if self.coarse is None:
            raise RuntimeError("index is not trained")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if nprobe is None:
            nprobe = max(1, self.num_clusters // 10)
        probed = self.coarse.nearest_centers(query, nprobe)
        chunks = []
        for cluster in probed:
            members = self._lists[int(cluster)].as_array()
            if members.size == 0:
                continue
            if allowed_mask is not None:
                members = members[allowed_mask[members]]
                if members.size == 0:
                    continue
            chunks.append(members)
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return IVFSearchResult(empty, empty.astype(np.float64), 0, len(probed))
        candidates = np.concatenate(chunks)
        rows = np.asarray(
            [self._row_of[int(oid)] for oid in candidates], dtype=np.int64
        )
        distances = squared_l2(self._vectors[rows], query)
        ids, dists = _top_k(candidates, distances, k)
        return IVFSearchResult(ids, dists, len(candidates), len(probed))

    # ------------------------------------------------------------------
    # Invariant checking (sanitizer hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify row-map bijectivity, free-list hygiene, and list membership."""
        capacity = len(self._oid_of_row)
        assert len(self._clusters) == capacity, "clusters/rows capacity mismatch"
        assert len(self._row_of) + len(self._free_rows) == capacity, (
            "live + free rows != capacity"
        )
        free = set(self._free_rows)
        assert len(free) == len(self._free_rows), "duplicate free rows"
        for row in free:
            assert self._oid_of_row[row] == -1, f"free row {row} keeps an oid"
            assert self._clusters[row] == -1, f"free row {row} keeps a cluster"
        members_total = 0
        for oid, row in self._row_of.items():
            assert row not in free, f"live object {oid} on a free row"
            assert self._oid_of_row[row] == oid, f"row map broken for {oid}"
            cluster = int(self._clusters[row])
            assert 0 <= cluster < len(self._lists), f"bad cluster for {oid}"
            assert oid in self._lists[cluster], (
                f"object {oid} missing from inverted list {cluster}"
            )
        members_total = sum(len(inverted) for inverted in self._lists)
        assert members_total == len(self._row_of), (
            "inverted lists do not partition the stored objects"
        )

    # ------------------------------------------------------------------
    # Memory model
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Float32 vectors + 4 B cluster ID + 4 B list entry per object."""
        dim = self._vectors.shape[1] if self._vectors.size else 0
        static = self.coarse.center_bytes() if self.coarse is not None else 0
        return len(self) * (4 * dim + 8) + static
