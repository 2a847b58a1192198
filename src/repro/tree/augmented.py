"""Range decomposition and cluster-guided retrieval over the augmented tree.

These are the tree-side halves of the paper's query algorithms:

* :func:`decompose` is ``IndexSetUnion`` (Alg. 1): it produces the canonical
  cover of a query range ``[lo, hi]`` — ``O(log n)`` *fully contained* subtree
  roots plus ``O(log n)`` *singleton* nodes (Theorem 3.1).
* :func:`find_kth_in_cluster` is ``FindObjectFromNode``: the rank query that
  fetches the ``k``-th object of a coarse cluster inside a subtree in
  ``O(log n)`` using the ``num`` aggregates.
* :func:`cover_take_cluster` is the per-cluster drain the search loop
  actually consumes: the in-range prefix of the cluster's run
  (:attr:`RangeTree.runs`), found with two bisects and cut with one slice —
  ``O(log n + output)`` with no per-object tree walk.  It returns exactly
  the objects, in exactly the order, that repeated ``FetchNewObject`` rank
  queries (:func:`cover_find_kth_in_cluster`) return.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from .wbt import RangeTree, TreeNode

__all__ = [
    "RangeCover",
    "decompose",
    "cover_cluster_ids",
    "count_in_range",
    "iter_range_objects",
    "find_kth_in_cluster",
    "cover_take_cluster",
    "cover_count_in_cluster",
    "cover_find_kth_in_cluster",
]


class RangeCover:
    """Canonical cover of an attribute range (Theorem 3.1).

    Attributes:
        pieces: ``(is_full, node)`` pairs in ``(attr, oid)`` key order.  A
            full piece is a subtree root whose valid attribute range is
            entirely inside the query range (the paper's ``O_2``); a single
            piece is one valid node inside the range whose subtree spills
            outside it (the paper's ``O_1``).
        tree: The tree the cover was taken from; its runs serve
            :func:`cover_take_cluster`.
    """

    __slots__ = ("pieces", "lo", "hi", "tree")

    def __init__(self, tree: RangeTree, lo: float, hi: float) -> None:
        self.tree = tree
        self.lo = lo
        self.hi = hi
        self.pieces: list[tuple[bool, TreeNode]] = []

    @property
    def full(self) -> list[TreeNode]:
        """The fully contained subtree roots, in key order."""
        return [node for is_full, node in self.pieces if is_full]

    @property
    def singles(self) -> list[TreeNode]:
        """The singleton nodes, in key order."""
        return [node for is_full, node in self.pieces if not is_full]

    @property
    def node_count(self) -> int:
        """Number of cover pieces (``O(log n)`` for a balanced tree)."""
        return len(self.pieces)

    @property
    def object_count(self) -> int:
        """Valid objects covered: ``num`` totals of full pieces plus singles."""
        return sum(
            sum(node.num.values()) if is_full else 1
            for is_full, node in self.pieces
        )


def decompose(tree: RangeTree, lo: float, hi: float) -> RangeCover:
    """Compute the canonical cover of ``[lo, hi]`` (``IndexSetUnion``).

    Args:
        tree: The augmented tree.
        lo: Inclusive lower attribute bound.
        hi: Inclusive upper attribute bound.

    Returns:
        A :class:`RangeCover` whose pieces jointly contain *exactly* the
        valid objects with attribute in ``[lo, hi]``, listed in key order.
    """
    cover = RangeCover(tree, lo, hi)
    _decompose(tree.root, lo, hi, cover.pieces)
    return cover


def _decompose(
    node: TreeNode | None,
    lo: float,
    hi: float,
    pieces: list[tuple[bool, TreeNode]],
) -> None:
    if node is None:
        return
    # No valid object of this subtree intersects the range (also true when
    # the subtree holds no valid objects at all: lp=+inf, rp=-inf).
    if node.rp < lo or node.lp > hi:
        return
    if lo <= node.lp and node.rp <= hi:
        pieces.append((True, node))
        return
    # In-order, so the pieces come out in key order.
    _decompose(node.left, lo, hi, pieces)
    if node.valid and lo <= node.attr <= hi:
        pieces.append((False, node))
    _decompose(node.right, lo, hi, pieces)


def cover_cluster_ids(cover: RangeCover) -> set[int]:
    """Union of coarse-cluster IDs over the cover (the candidate set ``C``)."""
    clusters: set[int] = set()
    for is_full, node in cover.pieces:
        if is_full:
            clusters.update(node.sp)
        else:
            clusters.add(node.cluster)
    return clusters


def count_in_range(tree: RangeTree, lo: float, hi: float) -> int:
    """Number of valid objects with attribute in ``[lo, hi]`` (``O(log n)``)."""
    return decompose(tree, lo, hi).object_count


def iter_range_objects(tree: RangeTree, lo: float, hi: float) -> Iterator[TreeNode]:
    """Yield every valid node with attribute in ``[lo, hi]``, in attr order.

    Explicit-stack in-order traversal pruned by the ``lp/rp`` bounds, so
    work is ``O(log n + output)`` and each yield costs ``O(1)`` (no nested
    generator delegation).
    """
    stack: list[TreeNode] = []
    current = tree.root
    while stack or current is not None:
        while current is not None:
            if current.rp < lo or current.lp > hi:
                current = None
                break
            stack.append(current)
            current = current.left
        if not stack:
            return
        visiting = stack.pop()
        if visiting.valid and lo <= visiting.attr <= hi:
            yield visiting
        current = visiting.right


# ----------------------------------------------------------------------
# Per-cluster retrieval beneath a single cover node
# ----------------------------------------------------------------------
def find_kth_in_cluster(node: TreeNode, cluster: int, rank: int) -> int:
    """Object ID of the ``rank``-th (1-based, attr order) valid object of
    ``cluster`` inside the subtree rooted at ``node`` (``FindObjectFromNode``).

    Runs in ``O(log n)`` guided by the ``num`` aggregates.

    Raises:
        IndexError: If the subtree holds fewer than ``rank`` such objects.
    """
    if rank < 1 or rank > node.count_in_cluster(cluster):
        raise IndexError(
            f"rank {rank} out of range for cluster {cluster} "
            f"(count {node.count_in_cluster(cluster)})"
        )
    current: TreeNode | None = node
    while current is not None:
        left_count = (
            current.left.count_in_cluster(cluster) if current.left else 0
        )
        if rank <= left_count:
            current = current.left
            continue
        rank -= left_count
        if current.valid and current.cluster == cluster:
            if rank == 1:
                return current.oid
            rank -= 1
        current = current.right
    raise IndexError("aggregate counts inconsistent")  # pragma: no cover


# ----------------------------------------------------------------------
# Per-cluster retrieval across a whole cover (what SearchByCCenters uses)
# ----------------------------------------------------------------------
def cover_count_in_cluster(cover: RangeCover, cluster: int) -> int:
    """Objects of ``cluster`` within the covered range."""
    return sum(
        node.count_in_cluster(cluster) if is_full else node.cluster == cluster
        for is_full, node in cover.pieces
    )


def cover_take_cluster(
    cover: RangeCover, cluster: int, limit: int | None
) -> list[int]:
    """First ``limit`` object IDs of ``cluster`` across the cover, in key order.

    The budget-limited cluster drain of Alg. 2 as a single call: the
    cluster's run is sorted by ``(attr, oid)``, so its in-range members are
    one contiguous slice found by two bisects.  Valid while the tree is not
    mutated after :func:`decompose` produced ``cover``.
    """
    run = cover.tree.runs.get(cluster)
    if run is None:
        return []
    attrs, oids = run
    start = bisect_left(attrs, cover.lo)
    stop = bisect_right(attrs, cover.hi, start)
    if limit is not None:
        stop = min(stop, start + max(limit, 0))
    return oids[start:stop]


def cover_find_kth_in_cluster(cover: RangeCover, cluster: int, rank: int) -> int:
    """``FetchNewObject`` (Alg. 2 lines 15–27): the ``rank``-th object of
    ``cluster`` across the cover pieces, 1-based.

    Walks the cover pieces in key order taking a prefix sum over ``num``
    counts, then answers inside the owning subtree with
    :func:`find_kth_in_cluster`.

    Raises:
        IndexError: If fewer than ``rank`` objects of the cluster are covered.
    """
    if rank < 1:
        raise IndexError(f"rank must be >= 1, got {rank}")
    for is_full, node in cover.pieces:
        if is_full:
            count = node.count_in_cluster(cluster)
            if rank <= count:
                return find_kth_in_cluster(node, cluster, rank)
            rank -= count
        elif node.cluster == cluster:
            if rank == 1:
                return node.oid
            rank -= 1
    raise IndexError(f"cluster {cluster} exhausted before requested rank")
