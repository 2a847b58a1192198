"""Weight-balanced augmented BST substrate for RangePQ."""

from .augmented import (
    RangeCover,
    count_in_range,
    cover_cluster_ids,
    cover_count_in_cluster,
    cover_find_kth_in_cluster,
    cover_take_cluster,
    decompose,
    find_kth_in_cluster,
    iter_range_objects,
)
from .wbt import BALANCE_EXEMPT_SIZE, RangeTree, TreeNode

__all__ = [
    "RangeTree",
    "TreeNode",
    "BALANCE_EXEMPT_SIZE",
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
