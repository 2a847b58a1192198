"""Core contribution: RangePQ, RangePQ+, and the adaptive L policy."""

from .adaptive import AdaptiveLPolicy, FixedLPolicy, LPolicy
from .batch import BatchResult, BatchStats, execute_batch
from .rangepq import RangePQ
from .rangepq_plus import HybridNode, RangePQPlus
from .results import QueryResult, QueryStats
from .search import search_by_coarse_centers

__all__ = [
    "RangePQ",
    "RangePQPlus",
    "HybridNode",
    "AdaptiveLPolicy",
    "FixedLPolicy",
    "LPolicy",
    "QueryResult",
    "QueryStats",
    "BatchResult",
    "BatchStats",
    "execute_batch",
    "search_by_coarse_centers",
]
