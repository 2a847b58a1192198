"""RangePQ: the ``O(n log K)``-space dynamic range-filtered ANN index (Sec. 3.1).

RangePQ couples a PQ-based index (:class:`repro.ivf.IVFPQIndex`) with a
weight-balanced BST keyed by attribute value.  Every tree node carries the
union of coarse-cluster IDs present in its subtree (``SP``/``num``), so a
query range ``[lo, hi]`` decomposes in ``O(log n)`` into cover pieces from
which the relevant coarse clusters — and then the in-range objects nearest to
the query's coarse centers — are read off directly (Algorithms 1 and 2).

Typical usage::

    index = RangePQ.build(vectors, attrs, num_subspaces=d // 4, seed=0)
    result = index.query(q, lo=10.0, hi=90.0, k=100)
    index.insert(oid, vector, attr)
    index.delete(oid)
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .. import kernels
from ..baselines.base import BatchSearchMixin
from ..ivf import IVFPQIndex
from ..obs import histogram, phase, span
from ..tree import (
    RangeTree,
    cover_cluster_ids,
    cover_find_kth_in_cluster,
    cover_take_cluster,
    decompose,
)
from .adaptive import AdaptiveLPolicy, LPolicy
from .results import QueryResult, QueryStats
from .search import search_by_coarse_centers

__all__ = ["RangePQ"]

_DECOMPOSE_MS = histogram("query.decompose_ms")


class RangePQ(BatchSearchMixin):
    """Dynamic range-filtered ANN index with ``O(n log K)`` space.

    Args:
        ivf: A trained :class:`~repro.ivf.IVFPQIndex`; objects added through
            this class are stored there and mirrored in the attribute tree.
        l_policy: Policy choosing the retrieval budget ``L`` per query;
            defaults to the paper's adaptive policy.
        alpha: Weight-balance parameter of the attribute tree.
    """

    def __init__(
        self,
        ivf: IVFPQIndex,
        *,
        l_policy: LPolicy | None = None,
        alpha: float = 0.2,
    ) -> None:
        if not ivf.is_trained:
            raise ValueError("IVFPQIndex must be trained before wrapping")
        self.ivf = ivf
        self.l_policy = l_policy or AdaptiveLPolicy()
        self.tree = RangeTree(alpha=alpha)
        self._attr: dict[int, float] = {}

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
        l_policy: LPolicy | None = None,
        alpha: float = 0.2,
        seed: int | None = None,
        ivf: IVFPQIndex | None = None,
    ) -> "RangePQ":
        """Train the PQ substrate and bulk-build the index over a dataset.

        Args:
            vectors: Array of shape ``(n, d)``.
            attrs: Attribute value per object.
            ids: Object IDs; defaults to ``0..n-1``.
            num_subspaces: PQ ``M``; defaults to ``d // 4`` (the paper's
                best-trade-off setting, Exp. 4).
            num_clusters: Coarse ``K``; defaults to ``⌈√n⌉``.
            num_codewords: PQ ``Z`` (default 256).
            l_policy: ``L`` policy; defaults to the adaptive policy.
            alpha: Tree balance parameter.
            seed: Seed for the k-means stages.
            ivf: Optional pre-trained, empty substrate to populate instead of
                training a new one (the harness shares one training run
                across all methods this way).

        Returns:
            A populated :class:`RangePQ`.
        """
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
        clusters = ivf.add(ids, vectors)
        index = cls(ivf, l_policy=l_policy, alpha=alpha)
        index.tree.build(
            (float(attr), oid, int(cluster))
            for attr, oid, cluster in zip(attrs, ids, clusters)
        )
        index._attr = {oid: float(attr) for oid, attr in zip(ids, attrs)}
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live objects."""
        return len(self._attr)

    def __contains__(self, oid: int) -> bool:
        return oid in self._attr

    def attribute_of(self, oid: int) -> float:
        """Attribute value of a stored object."""
        return self._attr[oid]

    # ------------------------------------------------------------------
    # Deferred maintenance (serving-layer hook)
    # ------------------------------------------------------------------
    @property
    def auto_rebuild(self) -> bool:
        """Whether deletes trigger the global rebuild inline (default).

        The serving layer (:mod:`repro.service`) disables this so the
        ``O(n)`` compaction runs on its maintenance plane instead of a
        client's delete call; it then polls :attr:`maintenance_due` and
        calls :meth:`run_maintenance`.
        """
        return self.tree.auto_rebuild

    @auto_rebuild.setter
    def auto_rebuild(self, value: bool) -> None:
        self.tree.auto_rebuild = bool(value)

    @property
    def maintenance_due(self) -> bool:
        """Whether the lazy-deletion trigger ``2·inv > size(root)`` holds."""
        return self.tree.needs_rebuild

    def run_maintenance(self) -> bool:
        """Compact the tree if the rebuild trigger holds; returns whether
        a rebuild ran."""
        if not self.tree.needs_rebuild:
            return False
        self.tree.rebuild()
        return True

    # ------------------------------------------------------------------
    # Updates (Algorithms 3 and 4)
    # ------------------------------------------------------------------
    def insert(self, oid: int, vector: np.ndarray, attr: float) -> None:
        """Insert one object (Alg. 3): assign its coarse cluster in ``O(KM)``
        and thread it through the tree in amortized ``O(log n)``.

        Raises:
            KeyError: If ``oid`` is already present.
        """
        if oid in self._attr:
            raise KeyError(f"object {oid} already present")
        attr = float(attr)
        cluster = int(self.ivf.add([oid], np.asarray(vector)[None, :])[0])
        try:
            self.tree.insert(attr, oid, cluster)
        except ValueError:
            # A lazily deleted node with the same (attr, oid) but a different
            # cluster blocks revalidation: compact the tree and retry.
            self.tree._rebuild_all()
            self.tree.insert(attr, oid, cluster)
        self._attr[oid] = attr

    def insert_many(
        self,
        ids: Sequence[int],
        vectors: np.ndarray,
        attrs: Sequence[float],
    ) -> None:
        """Insert a batch of objects.

        The ``O(KM)`` coarse assignments and PQ encodings are vectorized
        over the whole batch (the dominant cost of Alg. 3); tree threading
        remains per-object at amortized ``O(log n)`` each.

        Raises:
            KeyError: If any ID is already present.
            ValueError: If an ID is repeated within ``ids``.  Both are
                checked before any mutation, so a failed call leaves the
                index unchanged.
        """
        ids = list(ids)
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if not len(ids) == len(vectors) == len(attrs):
            raise ValueError(
                f"got {len(ids)} ids, {len(vectors)} vectors, "
                f"{len(attrs)} attrs"
            )
        for oid in ids:
            if oid in self._attr:
                raise KeyError(f"object {oid} already present")
        clusters = self.ivf.add(ids, vectors)
        for oid, attr, cluster in zip(ids, attrs, clusters):
            attr = float(attr)
            try:
                self.tree.insert(attr, oid, int(cluster))
            except ValueError:
                self.tree._rebuild_all()
                self.tree.insert(attr, oid, int(cluster))
            self._attr[oid] = attr

    def delete(self, oid: int) -> None:
        """Delete one object (Alg. 4): lazy tree removal, eager IVF removal.

        Raises:
            KeyError: If ``oid`` is absent.
        """
        attr = self._attr.pop(oid)
        self.tree.delete(attr, oid)
        self.ivf.remove([oid])

    def delete_many(self, ids: Sequence[int]) -> None:
        """Delete a batch of objects (each amortized ``O(log n)``).

        Raises:
            KeyError: If any ID is absent (checked before any mutation).
        """
        ids = list(ids)
        missing = [oid for oid in ids if oid not in self._attr]
        if missing:
            raise KeyError(f"objects not present: {missing[:5]}")
        for oid in ids:
            self.delete(oid)

    # ------------------------------------------------------------------
    # Queries (Algorithms 1 and 2)
    # ------------------------------------------------------------------
    def query(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
        fetch_mode: str = "guided",
    ) -> QueryResult:
        """Range-filtered top-``k`` ANN query.

        Args:
            query_vector: Array of shape ``(d,)``.
            lo: Inclusive lower attribute bound.
            hi: Inclusive upper attribute bound.
            k: Number of neighbors requested.
            l_budget: Override for ``L``; defaults to the configured policy
                applied to the range's coverage.
            fetch_mode: ``"guided"`` (default) slices each cluster's run
                (two bisects, ``O(log n + output)``); ``"rank"`` is the
                paper-literal ``FetchNewObject`` that issues one ``O(log n)``
                rank query per object over the ``num`` aggregates (Alg. 2).
                Both return identical objects in identical order; the rank
                mode is the reference the tests and the fetch-path ablation
                compare against.

        Returns:
            A :class:`QueryResult`; empty if nothing matches the filter.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if fetch_mode not in ("guided", "rank"):
            raise ValueError(f"unknown fetch_mode {fetch_mode!r}")
        # Alg. 1: canonical cover of [lo, hi], then everything the range
        # alone determines (in-range count, candidate clusters).
        with span("plan"):
            with phase("decompose", metric=_DECOMPOSE_MS) as timer:
                cover = decompose(self.tree, lo, hi)
            in_range = cover.object_count
            clusters = sorted(cover_cluster_ids(cover)) if in_range else []
        stats = QueryStats(
            num_in_range=in_range,
            cover_nodes=cover.node_count,
            decompose_ms=timer.ms,
        )
        if in_range == 0:
            return QueryResult.empty(stats)
        if l_budget is None:
            l_budget = self.l_policy.choose(in_range / max(len(self), 1))
        if fetch_mode == "guided":
            take = partial(cover_take_cluster, cover)
        else:
            take = lambda cluster, limit: kernels.drain(
                _rank_fetch_iter(cover, cluster), limit
            )
        return search_by_coarse_centers(
            self.ivf,
            np.asarray(query_vector, dtype=np.float64),
            k,
            l_budget,
            clusters,
            take,
            stats,
        )

    def query_batch(
        self,
        query_vectors: np.ndarray,
        ranges: Sequence[tuple[float, float]],
        k: int,
        *,
        l_budget: int | None = None,
    ) -> list[QueryResult]:
        """Answer many ``(query, range)`` pairs; convenience wrapper.

        Delegates to :meth:`batch_search`, which runs :meth:`query` once
        per pair.

        Args:
            query_vectors: Array of shape ``(q, d)``.
            ranges: One ``(lo, hi)`` pair per query.
            k: Neighbors per query.
            l_budget: Optional shared ``L`` override.

        Returns:
            One :class:`QueryResult` per input pair, in order.
        """
        return list(
            self.batch_search(query_vectors, ranges, k, l_budget=l_budget)
        )

    # ------------------------------------------------------------------
    # Invariant checking (sanitizer hook; mirrors RangePQ+)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the tree, the IVF store, and the attr map stay in lockstep.

        Delegates the structural checks (ordering, aggregates, α-balance,
        lazy-deletion accounting) to :meth:`RangeTree.check_invariants` and
        :meth:`IVFPQIndex.check_invariants`, then cross-checks the three
        stores: every live object appears once in each, with a consistent
        attribute and coarse-cluster assignment.
        """
        from ..tree.wbt import _inorder

        self.tree.check_invariants()
        self.ivf.check_invariants()
        assert len(self._attr) == len(self.ivf), (
            "attr map and IVF disagree on object count"
        )
        live = 0
        for node in _inorder(self.tree.root):
            if not node.valid:
                continue
            live += 1
            assert self._attr.get(node.oid) == node.attr, (
                f"tree node ({node.attr}, {node.oid}) not mirrored in attrs"
            )
            assert self.ivf.cluster_of(node.oid) == node.cluster, (
                f"object {node.oid}: tree cluster {node.cluster} != "
                f"IVF cluster {self.ivf.cluster_of(node.oid)}"
            )
        assert live == len(self._attr), (
            "valid tree nodes do not cover the live objects"
        )

    # ------------------------------------------------------------------
    # Memory accounting (Fig. 8 cost model)
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """C-equivalent bytes of tree + PQ storage (excludes raw vectors)."""
        return self.tree.memory_bytes() + self.ivf.memory_bytes()


def _rank_fetch_iter(cover, cluster: int):
    """Paper-literal ``FetchNewObject``: one rank query per fetched object."""
    rank = 1
    while True:
        try:
            yield cover_find_kth_in_cluster(cover, cluster, rank)
        except IndexError:
            return
        rank += 1
