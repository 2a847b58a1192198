"""Tests for the memory cost model and per-component breakdowns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RangePQ, RangePQPlus
from repro.eval.memory import (
    MemoryBreakdown,
    rangepq_breakdown,
    rangepq_plus_breakdown,
    raw_data_bytes,
)


@pytest.fixture(scope="module")
def indexes():
    rng = np.random.default_rng(41)
    vectors = rng.normal(size=(600, 16))
    attrs = rng.integers(0, 80, size=600).astype(float)
    flat = RangePQ.build(
        vectors, attrs, num_subspaces=4, num_clusters=16, num_codewords=32,
        seed=0,
    )
    hybrid = RangePQPlus(flat.ivf, epsilon=30)
    hybrid._attr = dict(flat._attr)
    hybrid._rebucket_all()
    return flat, hybrid


class TestRawDataBytes:
    def test_value(self):
        assert raw_data_bytes(1000, 128) == 512_000

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            raw_data_bytes(-1, 4)


class TestBreakdowns:
    def test_rangepq_total_matches_memory_bytes(self, indexes):
        flat, _ = indexes
        assert rangepq_breakdown(flat).total == flat.memory_bytes()

    def test_rangepq_plus_total_matches_memory_bytes(self, indexes):
        _, hybrid = indexes
        assert rangepq_plus_breakdown(hybrid).total == hybrid.memory_bytes()

    def test_aggregates_dominate_in_flat_tree(self, indexes):
        flat, hybrid = indexes
        flat_break = rangepq_breakdown(flat)
        hybrid_break = rangepq_plus_breakdown(hybrid)
        # The O(n log K) term lives in the flat tree's aggregates; the
        # hybrid index stores far fewer of them.
        assert flat_break.aggregates > 3 * hybrid_break.aggregates

    def test_shared_ivf_components_identical(self, indexes):
        flat, hybrid = indexes
        a = rangepq_breakdown(flat)
        b = rangepq_plus_breakdown(hybrid)
        assert a.pq_codes == b.pq_codes
        assert a.cluster_ids == b.cluster_ids
        assert a.codebooks == b.codebooks

    def test_rows_cover_all_components(self):
        breakdown = MemoryBreakdown(1, 2, 3, 4, 5, 6)
        assert breakdown.total == 21
        assert sum(value for _, value in breakdown.rows()) == 21
