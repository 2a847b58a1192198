"""Common interface implemented by every range-filtered index in this repo.

RangePQ, RangePQ+ and all baselines expose the same four operations so the
experiment harness can treat them interchangeably:

* ``insert(oid, vector, attr)``
* ``delete(oid)``
* ``query(query_vector, lo, hi, k) -> QueryResult``
* ``memory_bytes() -> int``

This module also hosts the sorted attribute directory the baselines share:
Milvus keeps a B-tree / binary-searchable attribute index, VBase "creates an
index for attributes to expedite filtering", and RII receives the in-range ID
subset as query input.  :class:`AttributeDirectory` models that component
with a sorted array + bisection, supporting ``O(log n)`` range counting and
``O(output)`` range extraction.
"""

from __future__ import annotations

import bisect
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.results import QueryResult

__all__ = ["RangeFilteredIndex", "BatchSearchMixin", "AttributeDirectory"]


@runtime_checkable
class RangeFilteredIndex(Protocol):
    """Structural type of every index under evaluation."""

    def insert(self, oid: int, vector: np.ndarray, attr: float) -> None:
        """Insert one object under a fresh ID."""

    def delete(self, oid: int) -> None:
        """Delete one stored object."""

    def query(
        self, query_vector: np.ndarray, lo: float, hi: float, k: int
    ) -> QueryResult:
        """Range-filtered approximate top-k search."""

    def memory_bytes(self) -> int:
        """C-equivalent bytes of the index structures."""

    def __len__(self) -> int: ...


class BatchSearchMixin:
    """Uniform multi-query entry point shared by every index class.

    Mixing this in gives a class ``batch_search``, which routes through
    :func:`repro.core.batch.execute_batch`: input validation, one ``query``
    call per request, and aggregated :class:`~repro.core.batch.BatchStats`.
    """

    def batch_search(
        self,
        queries: np.ndarray,
        ranges,
        k: int,
        **kwargs,
    ):
        """Answer ``(queries[i], ranges[i])`` for all ``i``; see
        :func:`repro.core.batch.execute_batch` for options and the returned
        :class:`~repro.core.batch.BatchResult`."""
        # Imported lazily: repro.core imports this module for the mixin, so
        # a module-level import of repro.core.batch here would be circular.
        from ..core.batch import execute_batch

        return execute_batch(self, queries, ranges, k, **kwargs)


class AttributeDirectory:
    """Sorted ``(attr, oid)`` directory with binary-search range access.

    Mutations keep the list sorted via bisection (``O(n)`` worst-case for the
    list shift, ``O(log n)`` to locate — the same profile as a B-tree page
    rewrite, and irrelevant next to the ``O(KM)`` cluster assignment that
    dominates insert cost in every PQ-backed method).
    """

    def __init__(self) -> None:
        self._keys: list[tuple[float, int]] = []
        self._attr_of: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, oid: int) -> bool:
        return oid in self._attr_of

    def attribute_of(self, oid: int) -> float:
        """Attribute of a stored object (KeyError if absent)."""
        return self._attr_of[oid]

    def add(self, oid: int, attr: float) -> None:
        """Insert an object (KeyError if the ID is already present)."""
        if oid in self._attr_of:
            raise KeyError(f"object {oid} already present")
        attr = float(attr)
        bisect.insort(self._keys, (attr, oid))
        self._attr_of[oid] = attr

    def remove(self, oid: int) -> float:
        """Remove an object, returning its attribute (KeyError if absent)."""
        attr = self._attr_of.pop(oid)
        index = bisect.bisect_left(self._keys, (attr, oid))
        assert self._keys[index] == (attr, oid)
        del self._keys[index]
        return attr

    def count_in_range(self, lo: float, hi: float) -> int:
        """Number of objects with attribute in ``[lo, hi]`` (``O(log n)``)."""
        left = bisect.bisect_left(self._keys, (lo, -np.inf))
        right = bisect.bisect_right(self._keys, (hi, np.inf))
        return max(0, right - left)

    def ids_in_range(self, lo: float, hi: float) -> np.ndarray:
        """Object IDs with attribute in ``[lo, hi]``, ascending by attribute."""
        left = bisect.bisect_left(self._keys, (lo, -np.inf))
        right = bisect.bisect_right(self._keys, (hi, np.inf))
        if right <= left:
            return np.empty(0, dtype=np.int64)
        return np.asarray([oid for _, oid in self._keys[left:right]], dtype=np.int64)

    def mask_in_range(self, lo: float, hi: float, universe: int) -> np.ndarray:
        """Boolean bitmap over IDs ``[0, universe)`` marking in-range objects.

        This is the bitmap Milvus' "Attribute-First-Vector-Search" strategy
        builds before probing the ANN index.
        """
        mask = np.zeros(universe, dtype=bool)
        ids = self.ids_in_range(lo, hi)
        ids = ids[ids < universe]
        mask[ids] = True
        return mask

    def check_invariants(self) -> None:
        """Verify the sorted key list and the oid→attr map agree."""
        assert len(self._keys) == len(self._attr_of), (
            "key list and attr map disagree on size"
        )
        for earlier, later in zip(self._keys, self._keys[1:]):
            assert earlier <= later, "directory keys out of order"
        for attr, oid in self._keys:
            assert self._attr_of.get(oid) == attr, (
                f"key ({attr}, {oid}) not mirrored in the attr map"
            )

    def memory_bytes(self) -> int:
        """C-equivalent bytes: one (attr, oid) pair = 12 B per entry."""
        return 12 * len(self._keys)
