"""Inverted-file (IVF) substrate: coarse quantizer and the dynamic IVFPQ index."""

from .coarse import CoarseQuantizer, default_num_clusters
from .ivfpq import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_NPROBE_FRACTION,
    IVFPQIndex,
    IVFSearchResult,
)
from .residual import ResidualIVFPQIndex
from .table_cache import CacheStats, LRUCache

__all__ = [
    "CoarseQuantizer",
    "default_num_clusters",
    "IVFPQIndex",
    "IVFSearchResult",
    "ResidualIVFPQIndex",
    "DEFAULT_NPROBE_FRACTION",
    "DEFAULT_CACHE_CAPACITY",
    "CacheStats",
    "LRUCache",
]
