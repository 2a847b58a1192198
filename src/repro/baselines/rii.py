"""RII baseline: Reconfigurable Inverted Index (Matsui et al., MM'18).

RII answers ANN queries over a *dynamically specified subset* ``S`` of the
object IDs.  For a range-filtered query it first materializes
``S = {oid : attr(oid) ∈ [lo, hi]}`` from an external, attribute-sorted
data frame, then runs the subset search of the original paper:

* if ``|S| < θ`` — linear ADC scan over ``S``;
* otherwise — probe the top-``⌈K·L/|S|⌉`` coarse clusters nearest to the
  query, collect candidates from ``cluster ∩ S`` until ``L`` IDs are found
  (or all probed clusters are exhausted), and rank them by ADC.

The *external data frame* is modelled as contiguous sorted numpy arrays that
are recopied on every update — matching both RII's actual design and the
paper's Fig. 7 observation that RII deletions pay for updating this frame.
Index reconstruction fires when the store grows past ``reconstruct_factor``
times its size at the last build (RII's answer to drift), compacting the
frame.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.results import QueryResult, QueryStats
from .base import BatchSearchMixin
from ..ivf import IVFPQIndex

__all__ = ["RIIIndex"]


class RIIIndex(BatchSearchMixin):
    """Reconfigurable inverted index with subset (range) queries.

    Args:
        ivf: A trained :class:`~repro.ivf.IVFPQIndex`.
        l_candidates: ``L`` — the candidate budget balancing time/accuracy.
        theta: Subset size below which RII falls back to a linear scan.
        reconstruct_factor: Growth ratio triggering reconstruction.
    """

    def __init__(
        self,
        ivf: IVFPQIndex,
        *,
        l_candidates: int = 1000,
        theta: int = 64,
        reconstruct_factor: float = 2.0,
    ) -> None:
        if not ivf.is_trained:
            raise ValueError("IVFPQIndex must be trained before wrapping")
        if l_candidates < 1:
            raise ValueError("l_candidates must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        if reconstruct_factor <= 1.0:
            raise ValueError("reconstruct_factor must exceed 1")
        self.ivf = ivf
        self.l_candidates = l_candidates
        self.theta = theta
        self.reconstruct_factor = reconstruct_factor
        # External data frame: parallel arrays sorted by (attr, oid).
        self._frame_attrs = np.empty(0, dtype=np.float64)
        self._frame_oids = np.empty(0, dtype=np.int64)
        self._size_at_build = 0
        self._reconstructions = 0

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
    ) -> "RIIIndex":
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
        attr_array = np.asarray(attrs, dtype=np.float64)
        oid_array = np.asarray(ids, dtype=np.int64)
        order = np.lexsort((oid_array, attr_array))
        index._frame_attrs = attr_array[order]
        index._frame_oids = oid_array[order]
        index._size_at_build = n
        return index

    # ------------------------------------------------------------------
    # Introspection / updates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frame_oids)

    def __contains__(self, oid: int) -> bool:
        return bool(np.any(self._frame_oids == oid))

    @property
    def reconstruction_count(self) -> int:
        """Number of reconstructions triggered by growth."""
        return self._reconstructions

    def insert(self, oid: int, vector: np.ndarray, attr: float) -> None:
        """Insert one object: encode (``O(KM)``) + frame recopy (``O(n)``)."""
        self.ivf.add([oid], np.asarray(vector)[None, :])  # KeyError if dup
        attr = float(attr)
        position = int(
            np.searchsorted(self._frame_attrs, attr, side="right")
        )
        self._frame_attrs = np.insert(self._frame_attrs, position, attr)
        self._frame_oids = np.insert(self._frame_oids, position, oid)
        if len(self) > self.reconstruct_factor * max(self._size_at_build, 1):
            self._reconstruct()

    def delete(self, oid: int) -> None:
        """Delete one object: IVF removal + frame recopy (``O(n)``)."""
        positions = np.flatnonzero(self._frame_oids == oid)
        if positions.size == 0:
            raise KeyError(f"object {oid} not present")
        self.ivf.remove([oid])
        self._frame_attrs = np.delete(self._frame_attrs, positions[0])
        self._frame_oids = np.delete(self._frame_oids, positions[0])

    def _reconstruct(self) -> None:
        """Compact the frame and refresh posting lists after heavy growth.

        RII re-runs coarse assignment over the grown store; with our shared
        substrate the assignments are already maintained incrementally, so
        reconstruction reduces to re-sorting/compacting the frame — the same
        asymptotic ``O(n)`` cost, kept for fidelity of the cost profile.
        """
        order = np.lexsort((self._frame_oids, self._frame_attrs))
        self._frame_attrs = np.ascontiguousarray(self._frame_attrs[order])
        self._frame_oids = np.ascontiguousarray(self._frame_oids[order])
        self._size_at_build = len(self)
        self._reconstructions += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, query_vector: np.ndarray, lo: float, hi: float, k: int
    ) -> QueryResult:
        """Range-filtered top-``k`` via RII subset search."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query_vector = np.asarray(query_vector, dtype=np.float64)
        stats = QueryStats()
        left = int(np.searchsorted(self._frame_attrs, lo, side="left"))
        right = int(np.searchsorted(self._frame_attrs, hi, side="right"))
        subset = self._frame_oids[left:right]
        stats.num_in_range = len(subset)
        if len(subset) == 0:
            return QueryResult.empty(stats)

        table = self.ivf.distance_table(query_vector)
        if len(subset) < self.theta:
            # Small-subset fallback: scan S directly.
            candidates = subset
            stats.num_candidates = len(candidates)
            distances = self.ivf.adc_for_ids(table, candidates.tolist())
        else:
            candidates, distances = self._subset_probe(
                query_vector, table, subset, stats
            )
            if len(candidates) == 0:
                return QueryResult.empty(stats)
        k = min(k, len(candidates))
        part = (
            np.argpartition(distances, k - 1)[:k]
            if k < len(distances)
            else np.arange(len(distances))
        )
        order = part[np.argsort(distances[part], kind="stable")]
        return QueryResult(
            ids=candidates[order].astype(np.int64),
            distances=distances[order],
            stats=stats,
        )

    def _subset_probe(
        self,
        query: np.ndarray,
        table: np.ndarray,
        subset: np.ndarray,
        stats: QueryStats,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe top-``⌈K·L/|S|⌉`` clusters, intersecting with ``S``."""
        k_clusters = self.ivf.num_clusters
        num_probe = min(
            k_clusters,
            int(np.ceil(k_clusters * self.l_candidates / len(subset))),
        )
        probed = self.ivf.coarse.nearest_centers(query, num_probe)
        stats.num_candidate_clusters = len(probed)

        universe = int(self._frame_oids.max()) + 1 if len(self) else 0
        mask = np.zeros(universe, dtype=bool)
        mask[subset[subset < universe]] = True

        chunks: list[np.ndarray] = []
        collected = 0
        for cluster in probed:
            members = self.ivf.cluster_members(int(cluster))
            if members.size == 0:
                continue
            hits = members[(members < universe)]
            hits = hits[mask[hits]]
            if hits.size == 0:
                continue
            chunks.append(hits)
            collected += hits.size
            if collected >= self.l_candidates:
                break
        if not chunks:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        candidates = np.concatenate(chunks)[: self.l_candidates]
        stats.num_candidates = len(candidates)
        distances = self.ivf.adc_for_ids(table, candidates.tolist())
        return candidates, distances

    # ------------------------------------------------------------------
    # Invariant checking (sanitizer hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the sorted frame mirrors the IVF contents."""
        self.ivf.check_invariants()
        assert len(self._frame_attrs) == len(self._frame_oids), (
            "frame attr/oid arrays out of sync"
        )
        assert len(self._frame_oids) == len(self.ivf), (
            "frame and IVF disagree on object count"
        )
        for earlier, later in zip(self._frame_attrs, self._frame_attrs[1:]):
            assert earlier <= later, "frame attrs out of order"
        seen: set[int] = set()
        for oid in self._frame_oids.tolist():
            assert oid not in seen, f"object {oid} duplicated in the frame"
            seen.add(oid)
            assert oid in self.ivf, f"frame object {oid} missing from the IVF"

    # ------------------------------------------------------------------
    # Memory model
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """IVFPQ storage, a 4 B inverted-list entry per object (the subset
        probe reads per-cluster members), and the external data frame
        (12 B per entry)."""
        return (
            self.ivf.memory_bytes() + 4 * len(self.ivf) + 12 * len(self._frame_oids)
        )
