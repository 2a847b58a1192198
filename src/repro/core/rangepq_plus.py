"""RangePQ+: the linear-space hybrid two-layer index (Sec. 3.3).

RangePQ+ compresses RangePQ's one-object-per-node tree into a weight-balanced
tree whose every node holds a *bucket* of up to ``2ε`` objects with
consecutive attribute values.  Each node keeps:

* bucket-level state — the objects' attributes, the per-bucket hash table
  ``HT`` (coarse cluster ID → member object IDs), its cluster union ``PN``
  (= ``HT.keys()``), and the bucket bounds ``Clp``/``Crp``;
* subtree aggregates — node count ``size``, attribute bounds ``lp``/``rp``,
  and ``num`` (cluster ID → object count below), whose key set is the
  paper's ``SP``.

Bucket bounds are stored as composite ``(attr, oid)`` keys: the paper assumes
unique attribute values and "deduplicates them by key values" otherwise, and
the composite key makes bucket ranges disjoint even when one attribute value
spans a bucket boundary.

With ``ζ = Θ(n/ε)`` nodes and ``ε = Θ(K)``, total space is ``O(n)``
(Theorem 3.10).  Queries run Alg. 5: a cover decomposition over buckets plus
an ``O(ε)`` scan of the at-most-two partially covered endpoint buckets,
followed by the shared ``SearchByCCenters`` phase.  Updates follow Alg. 6
(insert with bucket split at ``2ε``) and Alg. 7 (delete with sparse-bucket
accounting ``inv`` and a global rebuild once ``2·inv > ζ``).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .. import kernels
from ..baselines.base import BatchSearchMixin
from ..ivf import IVFPQIndex
from ..obs import histogram, phase, span
from ..tree.wbt import BALANCE_EXEMPT_SIZE
from .adaptive import AdaptiveLPolicy, LPolicy
from .results import QueryResult, QueryStats
from .search import search_by_coarse_centers

__all__ = ["RangePQPlus", "HybridNode"]

_DECOMPOSE_MS = histogram("query.decompose_ms")

_NEG_INF = -math.inf
_POS_INF = math.inf

#: Sentinel composite keys for an empty bucket (min > max <=> empty).
_EMPTY_LOW = (_POS_INF, _POS_INF)
_EMPTY_HIGH = (_NEG_INF, _NEG_INF)


class HybridNode:
    """One tree node of the hybrid index: a bucket plus subtree aggregates."""

    __slots__ = (
        "attrs",
        "ht",
        "clp",
        "crp",
        "left",
        "right",
        "size",
        "lp",
        "rp",
        "num",
    )

    def __init__(self) -> None:
        self.attrs: dict[int, float] = {}
        self.ht: dict[int, set[int]] = {}
        self.clp: tuple[float, float] = _EMPTY_LOW
        self.crp: tuple[float, float] = _EMPTY_HIGH
        self.left: HybridNode | None = None
        self.right: HybridNode | None = None
        self.size = 1
        self.lp = _POS_INF
        self.rp = _NEG_INF
        self.num: dict[int, int] = {}

    @property
    def pn(self):
        """The paper's ``PN``: cluster IDs present in this node's bucket."""
        return self.ht.keys()

    @property
    def sp(self):
        """The paper's ``SP``: cluster IDs present anywhere in the subtree."""
        return self.num.keys()

    def bucket_len(self) -> int:
        """Number of objects stored directly in this node's bucket."""
        return len(self.attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HybridNode(|bucket|={len(self.attrs)}, "
            f"Clp={self.clp}, Crp={self.crp}, size={self.size})"
        )


def _size(node: HybridNode | None) -> int:
    return 0 if node is None else node.size


class _HybridCover:
    """Cover of a query range over the hybrid tree (Alg. 5 decomposition)."""

    __slots__ = ("full_subtrees", "full_buckets", "partial_members")

    def __init__(self) -> None:
        self.full_subtrees: list[HybridNode] = []
        self.full_buckets: list[HybridNode] = []
        #: cluster ID -> in-range object IDs from partially covered buckets.
        self.partial_members: dict[int, list[int]] = {}

    @property
    def node_count(self) -> int:
        return len(self.full_subtrees) + len(self.full_buckets) + (
            1 if self.partial_members else 0
        )


class RangePQPlus(BatchSearchMixin):
    """Dynamic range-filtered ANN index with ``O(n)`` space.

    Args:
        ivf: A trained :class:`~repro.ivf.IVFPQIndex`.
        epsilon: Target bucket size ``ε``; defaults to ``K`` (the paper sets
            ``ε = Θ(K)``).  Buckets split when exceeding ``2ε``.
        l_policy: Policy for the retrieval budget ``L``.
        alpha: Weight-balance parameter of the bucket tree.
    """

    def __init__(
        self,
        ivf: IVFPQIndex,
        *,
        epsilon: int | None = None,
        l_policy: LPolicy | None = None,
        alpha: float = 0.2,
    ) -> None:
        if not ivf.is_trained:
            raise ValueError("IVFPQIndex must be trained before wrapping")
        if epsilon is None:
            epsilon = ivf.num_clusters
        if epsilon < 1:
            raise ValueError(f"epsilon must be >= 1, got {epsilon}")
        if not 0.0 < alpha <= 0.25:
            raise ValueError(f"alpha must be in (0, 0.25], got {alpha}")
        self.ivf = ivf
        self.epsilon = epsilon
        self.l_policy = l_policy or AdaptiveLPolicy()
        self.alpha = alpha
        self.root: HybridNode | None = None
        self._attr: dict[int, float] = {}
        self._sparse = 0  # the paper's `inv`: buckets holding < ε/2 objects
        self._rebuilds = 0
        #: When False, :meth:`delete` never triggers the global rebucket
        #: inline; the owner (e.g. the serving layer's maintenance daemon)
        #: polls :attr:`maintenance_due` and calls :meth:`run_maintenance`.
        self.auto_rebuild = True

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
        epsilon: int | None = None,
        l_policy: LPolicy | None = None,
        alpha: float = 0.2,
        seed: int | None = None,
        ivf: IVFPQIndex | None = None,
    ) -> "RangePQPlus":
        """Train the PQ substrate and bulk-build the hybrid index.

        Mirrors :meth:`repro.core.RangePQ.build`; see there for arguments.
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
        ivf.add(ids, vectors)
        index = cls(ivf, epsilon=epsilon, l_policy=l_policy, alpha=alpha)
        index._attr = {oid: float(attr) for oid, attr in zip(ids, attrs)}
        index._rebucket_all()
        return index

    def _rebucket_all(self) -> None:
        """(Re)build the whole two-layer structure from the live objects."""
        ordered = sorted(self._attr.items(), key=lambda item: (item[1], item[0]))
        buckets: list[HybridNode] = []
        for start in range(0, len(ordered), self.epsilon):
            chunk = ordered[start : start + self.epsilon]
            node = HybridNode()
            for oid, attr in chunk:
                self._bucket_put(node, oid, attr, self.ivf.cluster_of(oid))
            buckets.append(node)
        for node in buckets:
            _reset_links(node)
        self.root = _build_balanced(buckets)
        self._sparse = sum(
            1 for node in buckets if 2 * node.bucket_len() < self.epsilon
        )
        self._rebuilds += 1

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

    @property
    def node_count(self) -> int:
        """``ζ``: number of buckets/tree nodes."""
        return _size(self.root)

    @property
    def sparse_count(self) -> int:
        """The paper's ``inv`` counter (buckets below ``ε/2`` occupancy)."""
        return self._sparse

    @property
    def rebuild_count(self) -> int:
        """Subtree plus global rebuilds performed so far."""
        return self._rebuilds

    @property
    def maintenance_due(self) -> bool:
        """Whether the sparse-bucket trigger ``2·inv > ζ`` holds (Alg. 7)."""
        return self.root is not None and 2 * self._sparse > _size(self.root)

    def run_maintenance(self) -> bool:
        """Rebucket globally if the sparse trigger holds; returns whether
        a rebuild ran."""
        if not self.maintenance_due:
            return False
        self._rebucket_all()
        return True

    # ------------------------------------------------------------------
    # Bucket-level helpers
    # ------------------------------------------------------------------
    def _bucket_put(
        self, node: HybridNode, oid: int, attr: float, cluster: int
    ) -> None:
        key = (attr, oid)
        node.attrs[oid] = attr
        node.ht.setdefault(cluster, set()).add(oid)
        node.clp = min(node.clp, key)
        node.crp = max(node.crp, key)
        node.num[cluster] = node.num.get(cluster, 0) + 1
        node.lp = min(node.lp, attr)
        node.rp = max(node.rp, attr)

    def _bucket_remove(self, node: HybridNode, oid: int, cluster: int) -> None:
        del node.attrs[oid]
        members = node.ht[cluster]
        members.discard(oid)
        if not members:
            del node.ht[cluster]
        remaining = node.num[cluster] - 1
        if remaining:
            node.num[cluster] = remaining
        else:
            del node.num[cluster]
        # Clp/Crp and lp/rp are left as (valid) superset bounds; they are
        # restored exactly at the next rebuild touching this node.

    def _is_sparse(self, node: HybridNode) -> bool:
        return 2 * node.bucket_len() < self.epsilon

    # ------------------------------------------------------------------
    # Updates (Algorithms 6 and 7)
    # ------------------------------------------------------------------
    def insert(self, oid: int, vector: np.ndarray, attr: float) -> None:
        """Insert one object (Alg. 6).

        Raises:
            KeyError: If ``oid`` is already present.
        """
        if oid in self._attr:
            raise KeyError(f"object {oid} already present")
        attr = float(attr)
        cluster = int(self.ivf.add([oid], np.asarray(vector)[None, :])[0])
        self._attr[oid] = attr
        if self.root is None:
            node = HybridNode()
            self._bucket_put(node, oid, attr, cluster)
            self.root = node
            if self._is_sparse(node):
                self._sparse += 1
            return
        self.root = self._insert_object(self.root, oid, attr, cluster)

    def _insert_object(
        self, node: HybridNode, oid: int, attr: float, cluster: int
    ) -> HybridNode:
        # Subtree aggregates grow regardless of where the object lands.
        node.lp = min(node.lp, attr)
        node.rp = max(node.rp, attr)
        node.num[cluster] = node.num.get(cluster, 0) + 1
        key = (attr, oid)
        if key < node.clp and node.left is not None:
            node.left = self._insert_object(node.left, oid, attr, cluster)
            node.size = 1 + _size(node.left) + _size(node.right)
            return self._maintain(node)
        if key > node.crp and node.right is not None:
            node.right = self._insert_object(node.right, oid, attr, cluster)
            node.size = 1 + _size(node.left) + _size(node.right)
            return self._maintain(node)
        # Alg. 6 line 5: the object belongs in this node's bucket (either its
        # key falls inside [Clp, Crp] or the search ran out of tree).
        was_sparse = self._is_sparse(node)
        node.attrs[oid] = attr
        node.ht.setdefault(cluster, set()).add(oid)
        node.clp = min(node.clp, key)
        node.crp = max(node.crp, key)
        if was_sparse and not self._is_sparse(node):
            self._sparse -= 1
        if node.bucket_len() > 2 * self.epsilon:
            node = self._split(node)
        node.size = 1 + _size(node.left) + _size(node.right)
        return self._maintain(node)

    def _split(self, node: HybridNode) -> HybridNode:
        """Alg. 6 line 7: split an over-full bucket into two of size ``ε``."""
        ordered = sorted(node.attrs.items(), key=lambda item: (item[1], item[0]))
        half = len(ordered) // 2
        keep, move = ordered[:half], ordered[half:]

        sibling = HybridNode()
        for oid, attr in move:
            self._bucket_put(sibling, oid, attr, self.ivf.cluster_of(oid))

        # Rebuild this node's bucket-level state around the kept half; the
        # subtree aggregates (num/lp/rp/size before the sibling is linked)
        # are unchanged because the moved objects stay inside this subtree.
        node.attrs = dict(keep)
        node.ht = {}
        node.clp = _EMPTY_LOW
        node.crp = _EMPTY_HIGH
        for oid, attr in keep:
            node.ht.setdefault(self.ivf.cluster_of(oid), set()).add(oid)
            node.clp = min(node.clp, (attr, oid))
            node.crp = max(node.crp, (attr, oid))

        node.right = self._insert_node(node.right, sibling)
        node.size = 1 + _size(node.left) + _size(node.right)
        return node

    def _insert_node(
        self, node: HybridNode | None, new: HybridNode
    ) -> HybridNode:
        """Link a freshly split bucket into a subtree as a new leaf."""
        if node is None:
            return new
        node.size += 1
        node.lp = min(node.lp, new.lp)
        node.rp = max(node.rp, new.rp)
        for cluster, count in new.num.items():
            node.num[cluster] = node.num.get(cluster, 0) + count
        if new.clp < node.clp:
            node.left = self._insert_node(node.left, new)
        else:
            node.right = self._insert_node(node.right, new)
        return self._maintain(node)

    def insert_many(
        self,
        ids: Sequence[int],
        vectors: np.ndarray,
        attrs: Sequence[float],
    ) -> None:
        """Insert a batch of objects with vectorized encoding.

        See :meth:`repro.core.RangePQ.insert_many`; bucket threading is
        per-object with splits as in Alg. 6.

        Raises:
            KeyError: If any ID is already present (checked up front).
            ValueError: If an ID is repeated within ``ids`` (likewise).
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
            self._attr[oid] = attr
            if self.root is None:
                node = HybridNode()
                self._bucket_put(node, oid, attr, int(cluster))
                self.root = node
                if self._is_sparse(node):
                    self._sparse += 1
            else:
                self.root = self._insert_object(self.root, oid, attr, int(cluster))

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

    def delete(self, oid: int) -> None:
        """Delete one object (Alg. 7).

        Raises:
            KeyError: If ``oid`` is absent.
        """
        attr = self._attr.pop(oid)
        cluster = self.ivf.cluster_of(oid)
        key = (attr, oid)
        node = self.root
        while node is not None:
            if key < node.clp:
                node.num[cluster] -= 1
                if not node.num[cluster]:
                    del node.num[cluster]
                node = node.left
            elif key > node.crp:
                node.num[cluster] -= 1
                if not node.num[cluster]:
                    del node.num[cluster]
                node = node.right
            else:
                break
        if node is None or oid not in node.attrs:
            raise AssertionError(
                f"object {oid} tracked but not found in its bucket"
            )  # pragma: no cover - guarded by the _attr check above
        was_sparse = self._is_sparse(node)
        self._bucket_remove(node, oid, cluster)
        if not was_sparse and self._is_sparse(node):
            self._sparse += 1
        self.ivf.remove([oid])
        if self.auto_rebuild and 2 * self._sparse > _size(self.root):
            self._rebucket_all()

    # ------------------------------------------------------------------
    # Balance maintenance (shared discipline with the flat tree)
    # ------------------------------------------------------------------
    def _maintain(self, node: HybridNode) -> HybridNode:
        if node.size <= BALANCE_EXEMPT_SIZE:
            return node
        if min(_size(node.left), _size(node.right)) >= self.alpha * node.size:
            return node
        nodes = list(_inorder(node))
        for entry in nodes:
            _reset_links(entry)
        rebuilt = _build_balanced(nodes)
        self._rebuilds += 1
        assert rebuilt is not None
        return rebuilt

    # ------------------------------------------------------------------
    # Queries (Alg. 5)
    # ------------------------------------------------------------------
    def query(
        self,
        query_vector: np.ndarray,
        lo: float,
        hi: float,
        k: int,
        *,
        l_budget: int | None = None,
    ) -> QueryResult:
        """Range-filtered top-``k`` ANN query (Alg. 5).

        Args and return value mirror :meth:`repro.core.RangePQ.query`.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Alg. 5 steps 1-2: hybrid cover, then everything the range alone
        # determines (in-range count, candidate clusters).
        with span("plan"):
            with phase("decompose", metric=_DECOMPOSE_MS) as timer:
                cover = self._decompose(lo, hi)
            in_range = sum(
                len(members) for members in cover.partial_members.values()
            )
            in_range += sum(node.bucket_len() for node in cover.full_buckets)
            in_range += sum(
                sum(node.num.values()) for node in cover.full_subtrees
            )
            clusters: set[int] = set(cover.partial_members)
            for node in cover.full_subtrees:
                clusters.update(node.sp)
            for node in cover.full_buckets:
                clusters.update(node.pn)
        stats = QueryStats(
            num_in_range=in_range,
            cover_nodes=cover.node_count,
            decompose_ms=timer.ms,
        )
        if in_range == 0:
            return QueryResult.empty(stats)
        if l_budget is None:
            l_budget = self.l_policy.choose(in_range / max(len(self), 1))
        return search_by_coarse_centers(
            self.ivf,
            np.asarray(query_vector, dtype=np.float64),
            k,
            l_budget,
            sorted(clusters),
            lambda cluster, limit: kernels.drain_chunks(
                self._iter_cover_cluster_chunks(cover, cluster), limit
            ),
            stats,
        )

    def _decompose(self, lo: float, hi: float) -> _HybridCover:
        """Hybrid cover: HybridIndexSetUnion + HybridEndPointUnion combined.

        The paper handles the two endpoint buckets with a separate recursion
        (Alg. 5 lines 3-4); here any bucket only partially inside the range is
        classified during the same walk and scanned in ``O(ε)``.  Because
        bucket key ranges are disjoint, at most two buckets can be partial,
        so the work matches Theorem 3.10.
        """
        cover = _HybridCover()
        self._decompose_node(self.root, lo, hi, cover)
        return cover

    def _decompose_node(
        self, node: HybridNode | None, lo: float, hi: float, cover: _HybridCover
    ) -> None:
        if node is None or node.rp < lo or node.lp > hi:
            return
        if lo <= node.lp and node.rp <= hi:
            cover.full_subtrees.append(node)
            return
        if node.attrs:
            bucket_lo = node.clp[0]
            bucket_hi = node.crp[0]
            if lo <= bucket_lo and bucket_hi <= hi:
                cover.full_buckets.append(node)
            elif not (bucket_hi < lo or bucket_lo > hi):
                # Endpoint bucket: O(ε) scan, filtered per cluster.
                for oid, attr in node.attrs.items():
                    if lo <= attr <= hi:
                        cluster = self.ivf.cluster_of(oid)
                        cover.partial_members.setdefault(cluster, []).append(oid)
        self._decompose_node(node.left, lo, hi, cover)
        self._decompose_node(node.right, lo, hi, cover)

    def _iter_cover_cluster(
        self, cover: _HybridCover, cluster: int
    ) -> Iterator[int]:
        """All in-range members of one cluster across the cover pieces."""
        for chunk in self._iter_cover_cluster_chunks(cover, cluster):
            yield from chunk

    def _iter_cover_cluster_chunks(
        self, cover: _HybridCover, cluster: int
    ) -> Iterator[list[int]]:
        """In-range members of one cluster, one *bucket-sized chunk* at a
        time.

        This is the bucket layout paying off operationally: instead of
        walking objects one by one, each bucket's per-cluster hash-table
        entry is surrendered as a whole chunk, so the SearchByCCenters
        drain does ``O(buckets)`` Python-level steps rather than
        ``O(objects)`` (the "cache friendliness" the paper credits for
        RangePQ+ beating RangePQ).
        """
        for node in cover.full_subtrees:
            yield from _iter_cluster_chunks(node, cluster)
        for node in cover.full_buckets:
            members = node.ht.get(cluster)
            if members:
                yield list(members)
        partial = cover.partial_members.get(cluster)
        if partial:
            yield partial

    def query_batch(
        self,
        query_vectors: np.ndarray,
        ranges: Sequence[tuple[float, float]],
        k: int,
        *,
        l_budget: int | None = None,
    ) -> list[QueryResult]:
        """Answer many ``(query, range)`` pairs; see :meth:`RangePQ.query_batch`."""
        return list(
            self.batch_search(query_vectors, ranges, k, l_budget=l_budget)
        )

    # ------------------------------------------------------------------
    # Memory accounting (Fig. 8 / Fig. 10 cost model)
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """C-equivalent bytes of the two-layer structure plus PQ storage.

        Per node: bounds/pointers/size record ≈ 72 B.  Per ``num``/``SP``
        entry: 8 B.  Per ``HT`` entry: 8 B for the bucket list head plus 4 B
        per member ID.  Per object: attr (8 B) + oid (4 B).
        """
        node_bytes = 0
        for node in _inorder(self.root):
            node_bytes += 72
            node_bytes += 8 * len(node.num)
            node_bytes += 8 * len(node.ht)
            node_bytes += sum(4 * len(members) for members in node.ht.values())
            node_bytes += 12 * len(node.attrs)
        return node_bytes + self.ivf.memory_bytes()

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate bucket disjointness, aggregates, and balance."""
        nodes = list(_inorder(self.root))
        assert sum(node.bucket_len() for node in nodes) == len(self._attr)
        previous_crp = _EMPTY_HIGH
        for node in nodes:
            if node.attrs:
                true_lo = min((a, o) for o, a in node.attrs.items())
                true_hi = max((a, o) for o, a in node.attrs.items())
                assert node.clp <= true_lo and node.crp >= true_hi
                assert true_lo > previous_crp
                previous_crp = max(previous_crp, node.crp)
            for cluster, members in node.ht.items():
                for oid in members:
                    assert oid in node.attrs
                    assert self.ivf.cluster_of(oid) == cluster, (
                        f"object {oid}: bucket cluster {cluster} != "
                        f"IVF cluster {self.ivf.cluster_of(oid)}"
                    )
            for oid, attr in node.attrs.items():
                assert self._attr.get(oid) == attr, (
                    f"bucket object ({attr}, {oid}) not mirrored in attrs"
                )
            assert sum(len(m) for m in node.ht.values()) == len(node.attrs)
            counts: dict[int, int] = {}
            _collect_counts(node, counts)
            assert counts == node.num, f"num mismatch at {node!r}"
            expected_size = 1 + _size(node.left) + _size(node.right)
            assert node.size == expected_size
            if node.size > BALANCE_EXEMPT_SIZE:
                smaller = min(_size(node.left), _size(node.right))
                assert smaller >= self.alpha * node.size - 1e-9
        sparse = sum(1 for node in nodes if self._is_sparse(node))
        assert sparse == self._sparse
        assert len(self._attr) == len(self.ivf), (
            "attr map and IVF disagree on object count"
        )
        self.ivf.check_invariants()


def _collect_counts(node: HybridNode | None, counts: dict[int, int]) -> None:
    if node is None:
        return
    for cluster, members in node.ht.items():
        counts[cluster] = counts.get(cluster, 0) + len(members)
    _collect_counts(node.left, counts)
    _collect_counts(node.right, counts)


def _iter_cluster(node: HybridNode | None, cluster: int) -> Iterator[int]:
    """Members of ``cluster`` beneath ``node``, guided by ``num`` counts."""
    for chunk in _iter_cluster_chunks(node, cluster):
        yield from chunk


def _iter_cluster_chunks(
    node: HybridNode | None, cluster: int
) -> Iterator[list[int]]:
    """Per-bucket member chunks of ``cluster`` beneath ``node``."""
    if node is None or node.num.get(cluster, 0) == 0:
        return
    yield from _iter_cluster_chunks(node.left, cluster)
    members = node.ht.get(cluster)
    if members:
        yield list(members)
    yield from _iter_cluster_chunks(node.right, cluster)


def _inorder(node: HybridNode | None) -> Iterator[HybridNode]:
    stack: list[HybridNode] = []
    current = node
    while stack or current is not None:
        while current is not None:
            stack.append(current)
            current = current.left
        current = stack.pop()
        yield current
        current = current.right


def _reset_links(node: HybridNode) -> None:
    """Reset tree-level state so the node can be re-linked by a rebuild."""
    node.left = None
    node.right = None
    node.size = 1
    if node.attrs:
        node.lp = node.clp[0]
        node.rp = node.crp[0]
    else:
        node.lp = _POS_INF
        node.rp = _NEG_INF
    node.num = {cluster: len(members) for cluster, members in node.ht.items()}


def _build_balanced(nodes: list[HybridNode]) -> HybridNode | None:
    if not nodes:
        return None
    mid = len(nodes) // 2
    node = nodes[mid]
    node.left = _build_balanced(nodes[:mid])
    node.right = _build_balanced(nodes[mid + 1 :])
    node.size = 1 + _size(node.left) + _size(node.right)
    lp = node.lp
    rp = node.rp
    num = dict(node.num)
    for child in (node.left, node.right):
        if child is None:
            continue
        lp = min(lp, child.lp)
        rp = max(rp, child.rp)
        for cluster, count in child.num.items():
            num[cluster] = num.get(cluster, 0) + count
    node.lp = lp
    node.rp = rp
    node.num = num
    return node
