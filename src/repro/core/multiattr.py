"""Conjunctive multi-attribute filtering over a RangePQ-family index.

The paper indexes one attribute; real catalogs filter on several ("price
between X and Y **and** rating at least r").  This wrapper keeps the tree
on a designated *primary* attribute — the one whose ranges the index
accelerates — and evaluates the remaining attribute predicates per fetched
object inside the SearchByCCenters drain, before the object consumes any of
the ``L`` budget.

Complexity: the tree-side work is unchanged; each fetched candidate pays an
``O(#secondary-attributes)`` dict probe.  When a secondary predicate is very
selective the primary cover over-estimates coverage, so the adaptive-L
policy is driven by the *combined* selectivity estimated from a sample of
the primary range (cheap, bounded by ``sample_size``).

This is an extension beyond the paper (DESIGN.md §6); for best performance
pick the most selective / most queried attribute as primary.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .. import kernels
from .rangepq_plus import RangePQPlus
from .results import QueryResult, QueryStats
from .search import search_by_coarse_centers

__all__ = ["MultiAttrRangePQ"]


class MultiAttrRangePQ:
    """RangePQ+ with additional per-object attributes and conjunctive filters.

    Args:
        index: A populated :class:`RangePQPlus` over the primary attribute.
        secondary: Mapping ``attribute name -> {oid: value}``; every live
            object of ``index`` must appear in every secondary column.
        selectivity_sample: Objects sampled from the primary range to
            estimate the combined selectivity for the adaptive-L policy.
    """

    def __init__(
        self,
        index: RangePQPlus,
        secondary: Mapping[str, Mapping[int, float]],
        *,
        selectivity_sample: int = 256,
    ) -> None:
        if selectivity_sample < 1:
            raise ValueError("selectivity_sample must be >= 1")
        live = set(index._attr)
        for name, column in secondary.items():
            missing = live - set(column)
            if missing:
                raise ValueError(
                    f"secondary attribute {name!r} missing "
                    f"{len(missing)} objects (e.g. {sorted(missing)[:3]})"
                )
        self.index = index
        self.secondary = {name: dict(col) for name, col in secondary.items()}
        self.selectivity_sample = selectivity_sample

    def __len__(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------
    # Updates keep the secondary columns in sync
    # ------------------------------------------------------------------
    def insert(
        self,
        oid: int,
        vector: np.ndarray,
        primary_attr: float,
        secondary_attrs: Mapping[str, float],
    ) -> None:
        """Insert one object with all its attribute values.

        Raises:
            KeyError: If the ID exists.
            ValueError: If a secondary column is missing from the input.
        """
        missing = set(self.secondary) - set(secondary_attrs)
        if missing:
            raise ValueError(f"missing secondary attributes: {sorted(missing)}")
        self.index.insert(oid, vector, primary_attr)
        for name in self.secondary:
            self.secondary[name][oid] = float(secondary_attrs[name])

    def delete(self, oid: int) -> None:
        """Delete one object everywhere."""
        self.index.delete(oid)
        for column in self.secondary.values():
            column.pop(oid, None)

    # ------------------------------------------------------------------
    # Conjunctive queries
    # ------------------------------------------------------------------
    def query(
        self,
        query_vector: np.ndarray,
        primary_range: tuple[float, float],
        secondary_ranges: Mapping[str, tuple[float, float]],
        k: int,
        *,
        l_budget: int | None = None,
    ) -> QueryResult:
        """Top-``k`` under the conjunction of all given range predicates.

        Args:
            query_vector: Array of shape ``(d,)``.
            primary_range: ``(lo, hi)`` on the indexed attribute.
            secondary_ranges: Per-column ``(lo, hi)`` bounds (subset of the
                configured columns; omitted columns are unconstrained).
            k: Result count.
            l_budget: Optional override of the ``L`` policy.
        """
        unknown = set(secondary_ranges) - set(self.secondary)
        if unknown:
            raise ValueError(f"unknown secondary attributes: {sorted(unknown)}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        lo, hi = primary_range
        index = self.index
        stats = QueryStats()
        cover = index._decompose(lo, hi)
        stats.cover_nodes = cover.node_count
        primary_count = sum(
            len(members) for members in cover.partial_members.values()
        )
        primary_count += sum(n.bucket_len() for n in cover.full_buckets)
        primary_count += sum(sum(n.num.values()) for n in cover.full_subtrees)
        stats.num_in_range = primary_count
        if primary_count == 0:
            return QueryResult.empty(stats)

        def passes(oid: int) -> bool:
            for name, (s_lo, s_hi) in secondary_ranges.items():
                value = self.secondary[name][oid]
                if not s_lo <= value <= s_hi:
                    return False
            return True

        if l_budget is None:
            selectivity = self._estimate_selectivity(cover, passes)
            combined = primary_count * selectivity / max(len(index), 1)
            l_budget = index.l_policy.choose(combined)

        clusters: set[int] = set(cover.partial_members)
        for node in cover.full_subtrees:
            clusters.update(node.sp)
        for node in cover.full_buckets:
            clusters.update(node.pn)

        def members(cluster: int):
            for oid in index._iter_cover_cluster(cover, cluster):
                if passes(oid):
                    yield oid

        return search_by_coarse_centers(
            index.ivf,
            np.asarray(query_vector, dtype=np.float64),
            k,
            l_budget,
            sorted(clusters),
            lambda cluster, limit: kernels.drain(members(cluster), limit),
            stats,
        )

    # ------------------------------------------------------------------
    # Invariant checking (sanitizer hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the secondary columns mirror the primary index exactly."""
        self.index.check_invariants()
        live = set(self.index._attr)
        for name, column in self.secondary.items():
            missing = live - set(column)
            assert not missing, (
                f"secondary column {name!r} missing {len(missing)} live objects"
            )
            stale = set(column) - live
            assert not stale, (
                f"secondary column {name!r} keeps {len(stale)} deleted objects"
            )

    def _estimate_selectivity(self, cover, passes) -> float:
        """Fraction of a primary-range sample passing the secondary filters."""
        sampled = 0
        hits = 0
        for cluster in list(cover.partial_members) or []:
            for oid in cover.partial_members[cluster]:
                sampled += 1
                hits += passes(oid)
                if sampled >= self.selectivity_sample:
                    return hits / sampled
        for node in cover.full_buckets + cover.full_subtrees:
            source = (
                node.attrs
                if node.bucket_len()
                else {}
            )
            for oid in source:
                sampled += 1
                hits += passes(oid)
                if sampled >= self.selectivity_sample:
                    return hits / sampled
        if sampled == 0:
            return 1.0
        return hits / sampled
