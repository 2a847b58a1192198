"""Dynamic IVF + PQ index (the "PQ-based index" of Sec. 2.2).

:class:`IVFPQIndex` is the shared substrate every method in this repository
builds on — RangePQ/RangePQ+ attach their attribute trees to it, and the
Milvus-like / RII / VBase baselines run their query strategies over it.

Design notes:

* PQ codes are computed on **raw vectors** (not residuals), as in RII, so a
  single ``(M, Z)`` distance table per query serves objects from *any* coarse
  cluster.  RangePQ's ``SearchByCCenters`` depends on this property.
* Object IDs are caller-assigned non-negative integers.  Rows are stored in
  growable arrays with a free-list so deletes leave no holes to scan.
* Cluster membership lives only in the row-aligned ``_clusters`` array;
  the readers that need a cluster's members (plain IVF search, the RII and
  VBase baselines) derive them on demand and memoize them per cluster
  until the next mutation.  RangePQ and RangePQ+ keep their own
  membership in their runs and buckets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .. import kernels
from ..obs import counter
from ..quantization import ProductQuantizer
from .coarse import CoarseQuantizer, default_num_clusters
from .table_cache import CacheStats, LRUCache

__all__ = [
    "IVFPQIndex",
    "IVFSearchResult",
    "DEFAULT_NPROBE_FRACTION",
    "DEFAULT_CACHE_CAPACITY",
]

# Process-wide cache traffic (sums over every index in the process; the
# per-index exact counters live in each cache's CacheStats).
_TABLE_HITS = counter("cache.table.hits")
_TABLE_MISSES = counter("cache.table.misses")
_CENTER_HITS = counter("cache.center.hits")
_CENTER_MISSES = counter("cache.center.misses")

#: Fraction of the K coarse clusters probed by default in plain ANN search.
DEFAULT_NPROBE_FRACTION = 0.1

#: Default entry count for the per-index ADC-table / center-distance caches.
#: An entry costs ``M·Z·8`` B (table) or ``K·8`` B (centers); 256 tables at
#: the usual M=16, Z=256 is ~8 MB — small next to the codes it amortizes.
DEFAULT_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class IVFSearchResult:
    """Result of an IVF search.

    Attributes:
        ids: Object IDs of the (up to) ``k`` nearest results, ascending by
            approximate distance.
        distances: Matching approximate squared distances.
        num_candidates: Number of encoded vectors whose ADC distance was
            evaluated.
        num_probed: Number of coarse clusters visited.
    """

    ids: np.ndarray
    distances: np.ndarray
    num_candidates: int
    num_probed: int

    def __len__(self) -> int:
        return len(self.ids)


def _reject_repeated_ids(ids: list) -> None:
    """Raise if an ID occurs twice within one ``add`` batch.

    Called before any mutation: a repeat would otherwise overwrite the
    first occurrence's row mapping and leak its row.
    """
    if len(set(ids)) != len(ids):
        repeated = next(oid for oid, n in Counter(ids).items() if n > 1)
        raise ValueError(f"object {repeated} repeated within one batch")


class IVFPQIndex:
    """Dynamic inverted-file index with product-quantized codes.

    Args:
        num_subspaces: ``M``, PQ subspace count; must divide the vector dim.
        num_clusters: ``K``; defaults to ``⌈√n⌉`` of the training set.
        num_codewords: ``Z``, PQ codebook size per subspace.
        seed: Seed shared by the coarse and PQ k-means runs.
        cache_capacity: Entries kept in each of the per-query LRU caches
            (ADC tables and center distances); 0 disables caching.  Cached
            arrays depend only on the trained quantizers, so they survive
            add/remove and are invalidated by :meth:`train`.
    """

    def __init__(
        self,
        num_subspaces: int,
        *,
        num_clusters: int | None = None,
        num_codewords: int = 256,
        seed: int | None = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        self._requested_clusters = num_clusters
        self.pq = ProductQuantizer(num_subspaces, num_codewords, seed=seed)
        self.coarse: CoarseQuantizer | None = None
        self.seed = seed
        self._cache_capacity = cache_capacity
        self._table_cache = LRUCache(cache_capacity)
        self._center_cache = LRUCache(cache_capacity)

        self._codes = np.empty((0, num_subspaces), dtype=np.uint8)
        # Deliberately int32 in core (small cluster ids, half the memory);
        # widened to the int64 contract at the shm publish boundary.
        self._clusters = np.empty(0, dtype=np.int32)  # repro: noqa-D001
        self._row_of: dict[int, int] = {}
        self._oid_of_row = np.empty(0, dtype=np.int64)
        self._free_rows: list[int] = []
        # cluster id -> read-only member oids in row order; cleared before
        # every mutation (see cluster_members).
        self._members: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has been called."""
        return self.coarse is not None and self.pq.is_trained

    @property
    def num_clusters(self) -> int:
        """``K``, the coarse cluster count."""
        if self.coarse is None:
            raise RuntimeError("index is not trained")
        return self.coarse.num_clusters

    def __len__(self) -> int:
        """Number of stored objects."""
        return len(self._row_of)

    def __contains__(self, oid: int) -> bool:
        return oid in self._row_of

    def ids(self) -> list[int]:
        """All stored object IDs (unordered)."""
        return list(self._row_of)

    # ------------------------------------------------------------------
    # Training and storage
    # ------------------------------------------------------------------
    def train(
        self,
        training_vectors: np.ndarray,
        *,
        max_iter: int = 20,
        max_training_points: int | None = 20000,
    ) -> "IVFPQIndex":
        """Fit the coarse quantizer and the product quantizer.

        Training does not add any vectors; call :meth:`add` afterwards.

        Args:
            training_vectors: Array of shape ``(n, d)``.
            max_iter: Lloyd iterations for both k-means stages.
            max_training_points: Subsample cap passed to both stages.

        Returns:
            ``self``, for chaining.
        """
        self._members.clear()
        training_vectors = np.asarray(training_vectors, dtype=np.float64)
        k = self._requested_clusters or default_num_clusters(len(training_vectors))
        self.coarse = CoarseQuantizer(k, seed=self.seed).fit(
            training_vectors,
            max_iter=max_iter,
            max_training_points=max_training_points,
        )
        self.pq.fit(
            training_vectors,
            max_iter=max_iter,
            max_training_points=max_training_points,
        )
        self._codes = np.empty((0, self.pq.num_subspaces), dtype=self.pq.code_dtype)
        # Cached tables/distances were computed against the old quantizers.
        self.clear_caches()
        return self

    def clone_empty(self) -> "IVFPQIndex":
        """A fresh, empty index sharing this one's trained quantizers.

        The coarse centers and PQ codebooks are immutable after training, so
        sharing them is safe; storage (codes, cluster ids) is independent.
        Used by the experiment harness to give every method an identically
        trained substrate without re-running k-means.
        """
        if self.coarse is None:
            raise RuntimeError("index is not trained")
        clone = IVFPQIndex(
            self.pq.num_subspaces,
            num_clusters=self._requested_clusters,
            num_codewords=self.pq.num_codewords,
            seed=self.seed,
            cache_capacity=self._cache_capacity,
        )
        clone.pq = self.pq
        clone.coarse = self.coarse
        clone._codes = np.empty((0, self.pq.num_subspaces), dtype=self.pq.code_dtype)
        return clone

    def _grow(self, extra: int) -> None:
        """Ensure capacity for ``extra`` more rows (amortized doubling)."""
        needed = len(self._oid_of_row) - len(self._free_rows) + extra
        capacity = len(self._oid_of_row)
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity, 16)
        grown_codes = np.empty(
            (new_capacity, self._codes.shape[1]), dtype=self._codes.dtype
        )
        grown_codes[:capacity] = self._codes
        self._codes = grown_codes
        self._clusters = np.concatenate(
            [self._clusters, np.full(new_capacity - capacity, -1, dtype=np.int32)]
        )
        self._oid_of_row = np.concatenate(
            [self._oid_of_row, np.full(new_capacity - capacity, -1, dtype=np.int64)]
        )
        self._free_rows.extend(range(new_capacity - 1, capacity - 1, -1))

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> np.ndarray:
        """Insert vectors under the given object IDs.

        Args:
            ids: Distinct non-negative integers not already present.
            vectors: Array of shape ``(len(ids), d)``.

        Returns:
            The coarse cluster ID assigned to each inserted object.

        Raises:
            KeyError: If an ID is already present.
            ValueError: If an ID is repeated within ``ids``.  Both are
                checked before any mutation.
        """
        if self.coarse is None:
            raise RuntimeError("index is not trained; call train() first")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        ids = list(ids)
        if len(ids) != vectors.shape[0]:
            raise ValueError(
                f"{len(ids)} ids but {vectors.shape[0]} vectors supplied"
            )
        for oid in ids:
            if oid in self._row_of:
                raise KeyError(f"object {oid} already present")
        _reject_repeated_ids(ids)
        self._members.clear()
        clusters = self.coarse.assign(vectors)
        codes = self.pq.encode(vectors)
        self._grow(len(ids))
        if not self._codes.flags.writeable:
            # Mapped read-only (load_index mmap_mode="r"); a reused row
            # slot needs in-place writes, so adopt a private copy now.
            self._codes = np.array(self._codes, dtype=self._codes.dtype)
        for oid, cluster, code in zip(ids, clusters, codes):
            row = self._free_rows.pop()
            self._row_of[oid] = row
            self._oid_of_row[row] = oid
            self._clusters[row] = cluster
            self._codes[row] = code
        return clusters.astype(np.int32)  # repro: noqa-D001 — in-core plane is int32 by design

    def remove(self, ids: Iterable[int]) -> None:
        """Delete the given object IDs.

        Raises:
            KeyError: If any ID is absent; the IDs before it are removed.
        """
        self._members.clear()
        for oid in ids:
            row = self._row_of.pop(oid)
            self._clusters[row] = -1
            self._oid_of_row[row] = -1
            self._free_rows.append(row)

    # ------------------------------------------------------------------
    # Accessors used by the attribute-tree layers
    # ------------------------------------------------------------------
    def cluster_of(self, oid: int) -> int:
        """Coarse cluster ID of a stored object."""
        return int(self._clusters[self._row_of[oid]])

    def cluster_members(self, cluster_id: int) -> np.ndarray:
        """Object IDs currently assigned to ``cluster_id``, in row order.

        Derived from the row arrays in ``O(capacity)`` and memoized per
        cluster until the next mutation, so repeated reads of a static
        index pay the scan once.  The result is read-only.
        """
        members = self._members.get(cluster_id)
        if members is None:
            members = self._scan_members(cluster_id)
            self._members[cluster_id] = members
        return members

    def _scan_members(self, cluster_id: int) -> np.ndarray:
        members = self._oid_of_row[np.flatnonzero(self._clusters == cluster_id)]
        members.setflags(write=False)
        return members

    def cluster_sizes(self) -> np.ndarray:
        """Array of shape ``(K,)`` with the member count of each cluster."""
        live = self._clusters[self._clusters >= 0]
        return np.bincount(live, minlength=self.num_clusters).astype(np.int64)

    @staticmethod
    def _query_key(query: np.ndarray) -> tuple[np.ndarray, bytes]:
        """Canonical (array, cache-key) form of one query vector."""
        query = np.ascontiguousarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise ValueError(f"expected a 1-D query, got shape {query.shape}")
        return query, query.tobytes()

    def distance_table(self, query: np.ndarray) -> np.ndarray:
        """Per-query ADC table ``A`` of shape ``(M, Z)`` (cost ``O(d·Z)``).

        Memoized in an LRU cache keyed by the query bytes: an exact repeat
        of a query returns the stored (read-only) table without rebuilding
        it.  The cache is cleared by :meth:`train`.
        """
        query, key = self._query_key(query)
        table = self._table_cache.get(key)
        if table is None:
            _TABLE_MISSES.inc()
            table = self.pq.distance_table(query)
            table.setflags(write=False)
            self._table_cache.put(key, table)
        else:
            _TABLE_HITS.inc()
        return table

    def adc_for_ids(self, table: np.ndarray, ids: Sequence[int]) -> np.ndarray:
        """Approximate distances for specific object IDs.

        Args:
            table: A table from :meth:`distance_table`.
            ids: Object IDs (all must be present).

        Returns:
            Array of shape ``(len(ids),)``.

        Raises:
            KeyError: Naming the absent oid(s), if any ID is not stored.
        """
        if len(ids) == 0:
            return np.empty(0, dtype=np.float64)
        try:
            rows = kernels.rows_for_ids(self._row_of, ids)
        except KeyError:
            missing = [int(oid) for oid in ids if int(oid) not in self._row_of]
            shown = ", ".join(str(oid) for oid in missing[:10])
            if len(missing) > 10:
                shown += f", ... (+{len(missing) - 10} more)"
            raise KeyError(
                f"object id(s) not present in index: {shown}"
            ) from None
        return kernels.adc_for_rows(table, self._codes, rows)

    def center_distances(self, query: np.ndarray) -> np.ndarray:
        """Squared distances from ``query`` to all ``K`` coarse centers.

        Memoized like :meth:`distance_table` (read-only result, cleared by
        :meth:`train`).
        """
        if self.coarse is None:
            raise RuntimeError("index is not trained")
        query, key = self._query_key(query)
        dist = self._center_cache.get(key)
        if dist is None:
            _CENTER_MISSES.inc()
            dist = self.coarse.center_distances(query)
            dist.setflags(write=False)
            self._center_cache.put(key, dist)
        else:
            _CENTER_HITS.inc()
        return dist

    def probe_order(
        self, query: np.ndarray, *, limit: int | None = None
    ) -> np.ndarray:
        """Coarse cluster IDs sorted ascending by distance to ``query``.

        Args:
            query: Array of shape ``(d,)``.
            limit: When given, return only the first ``limit`` cluster IDs
                of the stable order — bit-identical to slicing the full
                result, but computed in ``O(K + limit log limit)`` instead
                of a full ``O(K log K)`` sort over all centers.
        """
        return kernels.stable_order(self.center_distances(query), limit=limit)

    # ------------------------------------------------------------------
    # Per-query cache management
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Invalidate the ADC-table and center-distance caches.

        Called automatically by :meth:`train`; callers only need it for
        measurement hygiene (e.g. benchmarking cold-cache behaviour).
        """
        self._table_cache.clear()
        self._center_cache.clear()

    @property
    def table_cache(self) -> "LRUCache":
        """The ADC-table cache (exposed for stats and tests)."""
        return self._table_cache

    @property
    def center_cache(self) -> "LRUCache":
        """The center-distance cache (exposed for stats and tests)."""
        return self._center_cache

    def cache_stats(self) -> dict[str, CacheStats]:
        """Counter snapshots for both per-query caches."""
        return {
            "table": self._table_cache.stats(),
            "center": self._center_cache.stats(),
        }

    # ------------------------------------------------------------------
    # Plain (unfiltered / mask-filtered) ANN search
    # ------------------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        allowed_mask: np.ndarray | None = None,
    ) -> IVFSearchResult:
        """Standard IVF-ADC top-``k`` search.

        Args:
            query: Array of shape ``(d,)``.
            k: Number of results requested.
            nprobe: Coarse clusters to visit; defaults to
                ``max(1, K * DEFAULT_NPROBE_FRACTION)``.
            allowed_mask: Optional boolean array indexed by object ID; when
                given, only IDs with a True entry are considered (this is the
                bitmap filter used by the Milvus-like baseline).

        Returns:
            An :class:`IVFSearchResult`.
        """
        if self.coarse is None:
            raise RuntimeError("index is not trained")
        if nprobe is None:
            nprobe = max(1, int(self.num_clusters * DEFAULT_NPROBE_FRACTION))
        probed = self.coarse.nearest_centers(query, nprobe)
        chunks = []
        for cluster in probed:
            members = self.cluster_members(int(cluster))
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
        table = self.distance_table(query)
        distances = self.adc_for_ids(table, candidates)
        top = _top_k(candidates, distances, k)
        return IVFSearchResult(top[0], top[1], len(candidates), len(probed))

    # ------------------------------------------------------------------
    # Iterator-style access (used by the VBase baseline)
    # ------------------------------------------------------------------
    def iter_candidates(
        self, query: np.ndarray
    ) -> Iterator[tuple[int, float]]:
        """Yield ``(oid, approx_distance)`` in cluster-probe order.

        Clusters are visited nearest-first; within a cluster, members are
        yielded ascending by approximate distance.  This is the ``Next``
        interface of the iterator model VBase builds on.
        """
        table = self.distance_table(query)
        for cluster in self.probe_order(query):
            members = self.cluster_members(int(cluster))
            if members.size == 0:
                continue
            distances = self.adc_for_ids(table, members)
            order = kernels.stable_order(distances)
            for idx in order:
                yield int(members[idx]), float(distances[idx])

    # ------------------------------------------------------------------
    # Invariant checking (sanitizer hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify row-map bijectivity, free-list hygiene, cluster ids, and
        that every memoized member array still matches the row arrays."""
        capacity = len(self._oid_of_row)
        assert self._codes.shape[0] == capacity, "codes/rows capacity mismatch"
        assert len(self._clusters) == capacity, "clusters/rows capacity mismatch"
        assert len(self._row_of) + len(self._free_rows) == capacity, (
            f"{len(self._row_of)} live + {len(self._free_rows)} free rows "
            f"!= capacity {capacity}"
        )
        free = set(self._free_rows)
        assert len(free) == len(self._free_rows), "duplicate free rows"
        for row in free:
            assert self._oid_of_row[row] == -1, f"free row {row} keeps an oid"
            assert self._clusters[row] == -1, f"free row {row} keeps a cluster"
        num_clusters = self.coarse.num_clusters if self.coarse is not None else 0
        for oid, row in self._row_of.items():
            assert row not in free, f"live object {oid} on a free row"
            assert self._oid_of_row[row] == oid, f"row map broken for {oid}"
            cluster = int(self._clusters[row])
            assert 0 <= cluster < num_clusters, f"bad cluster for {oid}"
        for cluster_id, members in self._members.items():
            assert np.array_equal(members, self._scan_members(cluster_id)), (
                f"stale member memo for cluster {cluster_id}"
            )

    # ------------------------------------------------------------------
    # Memory accounting (C-equivalent bytes; see eval/memory.py)
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes a C implementation of this index would occupy.

        Counts PQ codes (1–2 B per subspace per object), one 4 B cluster ID
        per object, and the float32 codebooks and coarse centers.  Readers
        that keep per-cluster member lists (RII, VBase) add their own 4 B
        list entry per object.
        """
        n = len(self)
        per_object = self.pq.code_bytes_per_vector() + 4
        static = self.pq.codebook_bytes()
        if self.coarse is not None:
            static += self.coarse.center_bytes()
        return n * per_object + static


def _top_k(
    ids: np.ndarray, distances: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Select the ``k`` smallest distances, ascending, with matching IDs."""
    return kernels.top_k(ids, distances, k)
