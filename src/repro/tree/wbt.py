"""Weight-balanced binary search tree with coarse-cluster augmentation.

This is the index structure of Sec. 3.1 of the paper.  Each node stores one
object — its attribute value, object ID, and coarse cluster ID ``P`` — plus
the subtree aggregates the query algorithms rely on:

* ``size``: number of nodes in the subtree, *valid and invalid* (lazy-deleted
  nodes stay in the tree until a rebuild, exactly as in Alg. 4).
* ``lp`` / ``rp``: minimum / maximum attribute value among **valid** nodes in
  the subtree (a superset bound is also fine; queries only require that the
  interval covers all valid attributes).
* ``num``: mapping ``cluster ID -> count of valid objects`` in the subtree.
  The paper's ``SP`` set is exactly ``num.keys()`` — a cluster is in ``SP``
  iff its count is positive — so we store one dict and expose ``sp``.

Balance discipline (Def. 3.2, Lemma 3.4): a node is *imbalanced* when its
subtree has more than :data:`BALANCE_EXEMPT_SIZE` nodes and one child weighs
less than ``alpha`` times the subtree.  An imbalanced node is repaired by
rebuilding its subtree perfectly balanced — ``O(size(u))`` work that can recur
only after ``Ω(size(u))`` updates inside the subtree, giving the same
amortized ``O(log n)`` bound as the constant-rotation scheme the paper cites
(Blum & Mehlhorn), while keeping the heavy per-node aggregates simple to
restore.

Deletions are lazy: the node is marked invalid and aggregates are decremented
along the search path; the whole tree is rebuilt (dropping invalid nodes)
once ``2 * invalid_count > size(root)``.

Beside the nodes the tree keeps one *run* per coarse cluster:
``runs[c] = (attrs, oids)``, two parallel lists holding cluster ``c``'s valid
objects in ``(attr, oid)`` order.  A run is what the query's per-cluster
drain reads (two bisects and a slice, see
:func:`repro.tree.augmented.cover_take_cluster`).  Inserts and
revalidations add the entry by bisect, deletes remove it eagerly (the node
itself stays lazily deleted), and rebuilds never touch the runs: a run holds
no invalid entry and no tree shape.  The price is an ``O(n/K)``
``list.insert`` memmove per update on top of the tree's amortized
``O(log n)``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

__all__ = ["TreeNode", "RangeTree", "BALANCE_EXEMPT_SIZE", "NODE_FIELDS"]

#: Subtrees of at most this many nodes are exempt from the balance condition
#: (Def. 3.2's small-subtree escape hatch).
BALANCE_EXEMPT_SIZE = 4

_NEG_INF = -math.inf
_POS_INF = math.inf

#: The C-equivalent node record behind :meth:`RangeTree.memory_bytes`:
#: field -> bytes.  Nodes live in one pool, so child links are u32 slot
#: indices like the IDs.  45 B, padded to 48 for the f64 alignment.
NODE_FIELDS = {
    "attr": 8, "oid": 4, "cluster": 4, "left": 4, "right": 4, "size": 4,
    "lp": 8, "rp": 8, "valid": 1,
}
_NODE_BYTES = -(-sum(NODE_FIELDS.values()) // 8) * 8
#: One run entry: a u32 reference to its node in the pool.
_RUN_ENTRY_BYTES = 4
#: One ``num``/``SP`` entry: a (cluster ID, count) pair of u32.
_NUM_ENTRY_BYTES = 8


class TreeNode:
    """One tree node holding one object and its subtree aggregates."""

    __slots__ = (
        "attr",
        "oid",
        "cluster",
        "valid",
        "left",
        "right",
        "size",
        "lp",
        "rp",
        "num",
    )

    def __init__(self, attr: float, oid: int, cluster: int) -> None:
        self.attr = attr
        self.oid = oid
        self.cluster = cluster
        self.valid = True
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None
        self.size = 1
        self.lp = attr
        self.rp = attr
        self.num: dict[int, int] = {cluster: 1}

    @property
    def key(self) -> tuple[float, int]:
        """BST ordering key: attribute value, tie-broken by object ID."""
        return (self.attr, self.oid)

    @property
    def sp(self):
        """The paper's ``SP`` set: cluster IDs with a valid object below."""
        return self.num.keys()

    def count_in_cluster(self, cluster: int) -> int:
        """Valid objects of ``cluster`` in this subtree (``u.num[i]``)."""
        return self.num.get(cluster, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.valid else " INVALID"
        return f"TreeNode(attr={self.attr}, oid={self.oid}, P={self.cluster}{flag})"


def _size(node: TreeNode | None) -> int:
    return 0 if node is None else node.size


class RangeTree:
    """Weight-balanced BST keyed by ``(attr, oid)`` with cluster aggregates.

    Args:
        alpha: Balance parameter from Def. 3.2, in ``(0, 0.25]``; the paper
            uses values in ``(0, 0.2]``.

    The tree never stores vectors — only ``(attr, oid, cluster)`` triples —
    which is what keeps RangePQ's space at ``O(n log K)``.
    """

    def __init__(self, *, alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 0.25:
            raise ValueError(f"alpha must be in (0, 0.25], got {alpha}")
        self.alpha = alpha
        self.root: TreeNode | None = None
        #: cluster -> (attrs, oids): its valid objects in (attr, oid) order.
        self.runs: dict[int, tuple[list[float], list[int]]] = {}
        self._invalid = 0
        self._rebuilds = 0
        self._rebuild_work = 0
        #: When False, :meth:`delete` never triggers the global rebuild
        #: inline; the owner (e.g. the serving layer's maintenance daemon)
        #: must poll :attr:`needs_rebuild` and call :meth:`rebuild`.
        self.auto_rebuild = True

    # ------------------------------------------------------------------
    # Size / introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of valid (live) objects."""
        return _size(self.root) - self._invalid

    @property
    def node_count(self) -> int:
        """Total nodes including lazy-deleted ones."""
        return _size(self.root)

    @property
    def invalid_count(self) -> int:
        """Number of lazy-deleted nodes awaiting the next global rebuild."""
        return self._invalid

    @property
    def rebuild_count(self) -> int:
        """Number of subtree/global rebuilds performed (for tests/ablation)."""
        return self._rebuilds

    @property
    def needs_rebuild(self) -> bool:
        """Whether the lazy-deletion trigger ``2·inv > size(root)`` holds."""
        return self.root is not None and 2 * self._invalid > _size(self.root)

    @property
    def rebuild_work(self) -> int:
        """Total nodes touched by rebuilds — the amortized-cost witness.

        Lemma 3.4's argument bounds this at ``O(log n)`` per update on
        average; a property test checks the bound empirically.
        """
        return self._rebuild_work

    def __contains__(self, key: tuple[float, int]) -> bool:
        node = self._find(key)
        return node is not None and node.valid

    def _find(self, key: tuple[float, int]) -> TreeNode | None:
        node = self.root
        while node is not None:
            node_key = (node.attr, node.oid)
            if key == node_key:
                return node
            node = node.left if key < node_key else node.right
        return None

    def height(self) -> int:
        """Height of the tree (0 for empty); ``O(log n)`` when balanced."""

        def walk(node: TreeNode | None) -> int:
            if node is None:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------
    def build(self, items: Iterable[tuple[float, int, int]]) -> None:
        """Replace the tree contents with ``(attr, oid, cluster)`` triples.

        Runs in ``O(n log K)`` aggregate work after an ``O(n log n)`` sort,
        matching the paper's bottom-up construction.
        """
        triples = sorted(items, key=lambda item: (item[0], item[1]))
        for (attr_a, oid_a, _), (attr_b, oid_b, _) in zip(triples, triples[1:]):
            if (attr_a, oid_a) == (attr_b, oid_b):
                raise ValueError(f"duplicate key ({attr_a}, {oid_a}) in build input")
        nodes = [TreeNode(attr, oid, cluster) for attr, oid, cluster in triples]
        self.root = _build_balanced(nodes)
        self._invalid = 0
        self.runs = {}
        for attr, oid, cluster in triples:
            attrs, oids = self.runs.setdefault(cluster, ([], []))
            attrs.append(attr)
            oids.append(oid)

    # ------------------------------------------------------------------
    # Insertion (Alg. 3)
    # ------------------------------------------------------------------
    def insert(self, attr: float, oid: int, cluster: int) -> None:
        """Insert an object, revalidating a matching lazy-deleted node if any.

        Raises:
            KeyError: If ``(attr, oid)`` is already present and valid.
        """
        existing = self._find((attr, oid))
        if existing is not None:
            if existing.valid:
                raise KeyError(f"object {oid} with attr {attr} already present")
            self._revalidate(attr, oid, cluster, existing)
            return
        self.root = self._insert(self.root, attr, oid, cluster)
        self._run_insert(attr, oid, cluster)

    def _insert(
        self, node: TreeNode | None, attr: float, oid: int, cluster: int
    ) -> TreeNode:
        if node is None:
            return TreeNode(attr, oid, cluster)
        # Update the aggregates of every node on the path (Alg. 3 line 6).
        node.size += 1
        node.lp = min(node.lp, attr)
        node.rp = max(node.rp, attr)
        node.num[cluster] = node.num.get(cluster, 0) + 1
        if (attr, oid) < node.key:
            node.left = self._insert(node.left, attr, oid, cluster)
        else:
            node.right = self._insert(node.right, attr, oid, cluster)
        return self._maintain(node)

    def _revalidate(
        self, attr: float, oid: int, cluster: int, target: TreeNode
    ) -> None:
        """Un-delete a lazily deleted node, restoring path aggregates."""
        if target.cluster != cluster:
            raise ValueError(
                f"object {oid} re-inserted with cluster {cluster}, "
                f"was {target.cluster}"
            )
        key = (attr, oid)
        node = self.root
        while node is not None:
            node.num[cluster] = node.num.get(cluster, 0) + 1
            node.lp = min(node.lp, attr)
            node.rp = max(node.rp, attr)
            node_key = (node.attr, node.oid)
            if key == node_key:
                break
            node = node.left if key < node_key else node.right
        target.valid = True
        self._invalid -= 1
        self._run_insert(attr, oid, cluster)

    # ------------------------------------------------------------------
    # Per-cluster runs
    # ------------------------------------------------------------------
    def _run_insert(self, attr: float, oid: int, cluster: int) -> None:
        run = self.runs.get(cluster)
        if run is None:
            self.runs[cluster] = ([attr], [oid])
            return
        attrs, oids = run
        at = bisect_left(attrs, attr)
        if at < len(attrs) and attrs[at] == attr:
            # Equal attrs are ordered by oid.
            at = bisect_left(oids, oid, at, bisect_right(attrs, attr, at))
        attrs.insert(at, attr)
        oids.insert(at, oid)

    # ------------------------------------------------------------------
    # Deletion (Alg. 4)
    # ------------------------------------------------------------------
    def delete(self, attr: float, oid: int) -> int:
        """Lazily delete an object; returns its coarse cluster ID.

        The node is marked invalid and cluster counts are decremented on the
        root-to-node path.  When more than half the nodes are invalid the
        whole tree is rebuilt (Alg. 4 line 8).

        Raises:
            KeyError: If the object is absent (or already deleted).
        """
        key = (attr, oid)
        path: list[TreeNode] = []
        node = self.root
        while node is not None:
            path.append(node)
            node_key = (node.attr, node.oid)
            if key == node_key:
                break
            node = node.left if key < node_key else node.right
        if node is None or not node.valid:
            raise KeyError(f"object {oid} with attr {attr} not present")
        cluster = node.cluster
        for visited in path:
            remaining = visited.num[cluster] - 1
            if remaining:
                visited.num[cluster] = remaining
            else:
                del visited.num[cluster]
        node.valid = False
        self._invalid += 1
        # Eager run removal: the run holds valid objects only.  An oid is
        # in one run once, at or after the first entry with its attr.
        attrs, oids = self.runs[cluster]
        at = bisect_left(attrs, attr)
        if oids[at] != oid:
            at = oids.index(oid, at)
        del attrs[at]
        del oids[at]
        if not oids:
            del self.runs[cluster]
        if self.auto_rebuild and 2 * self._invalid > _size(self.root):
            self._rebuild_all()
        return cluster

    def rebuild(self) -> None:
        """Compact the tree now (drop lazy-deleted nodes, rebalance).

        The deferred-maintenance entry point: with :attr:`auto_rebuild`
        disabled this is how the owner pays down the lazy-deletion debt.
        """
        self._rebuild_all()

    def _rebuild_all(self) -> None:
        """Global rebuild: drop invalid nodes, restore perfect balance."""
        nodes = [node for node in _inorder(self.root) if node.valid]
        for node in nodes:
            _reset_as_leaf(node)
        self.root = _build_balanced(nodes)
        self._invalid = 0
        self._rebuilds += 1
        self._rebuild_work += len(nodes)

    # ------------------------------------------------------------------
    # Balance maintenance (Def. 3.2 / Lemma 3.4)
    # ------------------------------------------------------------------
    def _is_balanced(self, node: TreeNode) -> bool:
        if node.size <= BALANCE_EXEMPT_SIZE:
            return True
        smaller = min(_size(node.left), _size(node.right))
        return smaller >= self.alpha * node.size

    def _maintain(self, node: TreeNode) -> TreeNode:
        """Repair an imbalanced node by rebuilding its subtree."""
        if self._is_balanced(node):
            return node
        nodes = list(_inorder(node))
        for entry in nodes:
            _reset_as_leaf(entry)
        rebuilt = _build_balanced(nodes)
        self._rebuilds += 1
        self._rebuild_work += len(nodes)
        assert rebuilt is not None
        return rebuilt

    # ------------------------------------------------------------------
    # Memory accounting (cost model for Fig. 8)
    # ------------------------------------------------------------------
    def aux_entry_count(self) -> int:
        """Total entries across all ``num`` dicts — the ``O(n log K)`` term."""
        return sum(len(node.num) for node in _inorder(self.root))

    def memory_bytes(self) -> int:
        """C-equivalent bytes: node records, run entries and ``num`` entries.

        Per node the :data:`NODE_FIELDS` record (48 B, child links are u32
        pool slots), per live object one 4 B run entry, per ``num``/``SP``
        entry 8 B.  That is 52 B per object where the pointer-linked model
        before the runs charged 56 B, so ``index_bytes`` falls about 3.0 %
        as a model change.
        """
        return (
            _NODE_BYTES * self.node_count
            + _RUN_ENTRY_BYTES * len(self)
            + _NUM_ENTRY_BYTES * self.aux_entry_count()
        )

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by the property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify ordering, aggregate, and balance invariants; raise on error."""
        count_invalid = _check_subtree(self.root, self.alpha)
        if count_invalid != self._invalid:
            raise AssertionError(
                f"invalid-count mismatch: tracked {self._invalid}, "
                f"found {count_invalid}"
            )
        if (
            self.auto_rebuild
            and 2 * self._invalid > _size(self.root)
            and self.root is not None
        ):
            raise AssertionError("rebuild threshold exceeded without rebuild")
        expected: dict[int, tuple[list[float], list[int]]] = {}
        for node in _inorder(self.root):
            if node.valid:
                attrs, oids = expected.setdefault(node.cluster, ([], []))
                attrs.append(node.attr)
                oids.append(node.oid)
        if self.runs != expected:
            raise AssertionError(
                "runs differ from the in-order valid nodes grouped by cluster"
            )


def _reset_as_leaf(node: TreeNode) -> None:
    """Clear links and aggregates so ``node`` can be re-linked by a rebuild."""
    node.left = None
    node.right = None
    node.size = 1
    if node.valid:
        node.lp = node.attr
        node.rp = node.attr
        node.num = {node.cluster: 1}
    else:
        node.lp = _POS_INF
        node.rp = _NEG_INF
        node.num = {}


def _build_balanced(nodes: list[TreeNode]) -> TreeNode | None:
    """Link pre-reset nodes (sorted by key) into a perfectly balanced tree."""
    if not nodes:
        return None
    mid = len(nodes) // 2
    node = nodes[mid]
    node.left = _build_balanced(nodes[:mid])
    node.right = _build_balanced(nodes[mid + 1 :])
    _recompute_aggregates(node)
    return node


def _recompute_aggregates(node: TreeNode) -> None:
    """Recompute ``size``, ``lp``/``rp`` and ``num`` from the children."""
    node.size = 1 + _size(node.left) + _size(node.right)
    lp = node.attr if node.valid else _POS_INF
    rp = node.attr if node.valid else _NEG_INF
    num: dict[int, int] = {node.cluster: 1} if node.valid else {}
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


def _inorder(node: TreeNode | None) -> Iterator[TreeNode]:
    """In-order traversal (iterative, so deep trees cannot overflow)."""
    stack: list[TreeNode] = []
    current = node
    while stack or current is not None:
        while current is not None:
            stack.append(current)
            current = current.left
        current = stack.pop()
        yield current
        current = current.right


def _check_subtree(node: TreeNode | None, alpha: float) -> int:
    """Recursively validate one subtree; returns its invalid-node count."""
    invalid_total = 0
    for entry in _inorder(node):
        expected_size = 1 + _size(entry.left) + _size(entry.right)
        if entry.size != expected_size:
            raise AssertionError(f"size mismatch at {entry!r}")
        if not entry.valid:
            invalid_total += 1
        lp = entry.attr if entry.valid else _POS_INF
        rp = entry.attr if entry.valid else _NEG_INF
        num: dict[int, int] = {entry.cluster: 1} if entry.valid else {}
        for child in (entry.left, entry.right):
            if child is None:
                continue
            lp = min(lp, child.lp)
            rp = max(rp, child.rp)
            for cluster, count in child.num.items():
                num[cluster] = num.get(cluster, 0) + count
        if entry.num != num:
            raise AssertionError(f"num aggregate mismatch at {entry!r}")
        # lp/rp may be a superset interval (stale bounds after lazy deletes)
        # but must always cover the exact valid range.
        if entry.lp > lp or entry.rp < rp:
            raise AssertionError(f"lp/rp does not cover valid range at {entry!r}")
        if entry.left is not None and entry.left.key >= entry.key:
            raise AssertionError(f"BST order violated left of {entry!r}")
        if entry.right is not None and entry.right.key <= entry.key:
            raise AssertionError(f"BST order violated right of {entry!r}")
        if entry.size > BALANCE_EXEMPT_SIZE:
            if min(_size(entry.left), _size(entry.right)) < alpha * entry.size - 1e-9:
                raise AssertionError(f"weight balance violated at {entry!r}")
    return invalid_total
