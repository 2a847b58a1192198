"""Memory cost model and per-component breakdowns (Figs. 8 and 10).

Why a cost model instead of ``sys.getsizeof``: CPython object headers and
dict load factors would dominate any measurement and say nothing about the
*index designs* being compared.  Every structure in this repository instead
reports the bytes a straightforward C implementation would use, with the
conventions below; this module centralizes the constants, provides the raw
data size used as the reference line in Fig. 8, and computes per-component
breakdowns for the space ablation.

Conventions (documented in DESIGN.md §4):

* object IDs, cluster IDs, counts: 4 B
* attribute values, pointers: 8 B (RangePQ's tree links nodes by u32 pool
  slot instead; its record is :data:`repro.tree.wbt.NODE_FIELDS`)
* stored vector coordinates and codebook entries: float32, 4 B
* PQ codes: 1 B per subspace for ``Z ≤ 256`` (2 B otherwise)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rangepq import RangePQ
from ..core.rangepq_plus import RangePQPlus, _inorder as _hybrid_inorder

__all__ = [
    "raw_data_bytes",
    "MemoryBreakdown",
    "rangepq_breakdown",
    "rangepq_plus_breakdown",
]


def raw_data_bytes(num_objects: int, dim: int) -> int:
    """Bytes of the raw dataset (float32), the Fig. 8 reference line."""
    if num_objects < 0 or dim < 0:
        raise ValueError("num_objects and dim must be non-negative")
    return 4 * num_objects * dim


@dataclass(frozen=True)
class MemoryBreakdown:
    """Byte counts of one index, split by component.

    Attributes:
        pq_codes: Encoded vectors in the IVF layer.
        inverted_lists: Cluster membership (IDs + list bookkeeping).
        codebooks: PQ sub-codebooks plus coarse centers (training output).
        tree_nodes: Fixed per-node record of the attribute tree (for
            RangePQ also its 4 B per-object run entries).
        aggregates: ``SP``/``num`` entries — the term that separates
            RangePQ's ``O(n log K)`` from RangePQ+'s ``O(n)``.
        bucket_tables: RangePQ+ per-bucket hash tables and object records
            (zero for RangePQ).
    """

    pq_codes: int
    inverted_lists: int
    codebooks: int
    tree_nodes: int
    aggregates: int
    bucket_tables: int

    @property
    def total(self) -> int:
        """Sum of all components."""
        return (
            self.pq_codes
            + self.inverted_lists
            + self.codebooks
            + self.tree_nodes
            + self.aggregates
            + self.bucket_tables
        )

    def rows(self) -> list[tuple[str, int]]:
        """(component, bytes) pairs for table rendering."""
        return [
            ("pq_codes", self.pq_codes),
            ("inverted_lists", self.inverted_lists),
            ("codebooks", self.codebooks),
            ("tree_nodes", self.tree_nodes),
            ("aggregates", self.aggregates),
            ("bucket_tables", self.bucket_tables),
        ]


def _ivf_components(ivf) -> tuple[int, int, int]:
    """(pq_codes, inverted_lists, codebooks) bytes of an IVFPQIndex."""
    n = len(ivf)
    pq_codes = n * ivf.pq.code_bytes_per_vector()
    inverted = n * (4 + 4)  # cluster ID per object + one list entry
    codebooks = ivf.pq.codebook_bytes()
    if ivf.coarse is not None:
        codebooks += ivf.coarse.center_bytes()
    return pq_codes, inverted, codebooks


def rangepq_breakdown(index: RangePQ) -> MemoryBreakdown:
    """Component breakdown of a RangePQ index.

    Matches :meth:`RangePQ.memory_bytes` in total.
    """
    pq_codes, inverted, codebooks = _ivf_components(index.ivf)
    aggregates = 8 * index.tree.aux_entry_count()
    return MemoryBreakdown(
        pq_codes=pq_codes,
        inverted_lists=inverted,
        codebooks=codebooks,
        tree_nodes=index.tree.memory_bytes() - aggregates,
        aggregates=aggregates,
        bucket_tables=0,
    )


def rangepq_plus_breakdown(index: RangePQPlus) -> MemoryBreakdown:
    """Component breakdown of a RangePQ+ index.

    Matches :meth:`RangePQPlus.memory_bytes` in total.
    """
    pq_codes, inverted, codebooks = _ivf_components(index.ivf)
    tree_nodes = 0
    aggregates = 0
    bucket_tables = 0
    for node in _hybrid_inorder(index.root):
        tree_nodes += 72
        aggregates += 8 * len(node.num)
        bucket_tables += 8 * len(node.ht)
        bucket_tables += sum(4 * len(members) for members in node.ht.values())
        bucket_tables += 12 * len(node.attrs)
    return MemoryBreakdown(
        pq_codes=pq_codes,
        inverted_lists=inverted,
        codebooks=codebooks,
        tree_nodes=tree_nodes,
        aggregates=aggregates,
        bucket_tables=bucket_tables,
    )
