"""Direct unit tests for the shared SearchByCCenters phase and result types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QueryResult, QueryStats
from repro.core.search import search_by_coarse_centers
from repro.ivf import IVFPQIndex


@pytest.fixture(scope="module")
def ivf(blob_data_module):
    index = IVFPQIndex(num_subspaces=4, num_clusters=5, num_codewords=16, seed=0)
    index.train(blob_data_module)
    index.add(range(len(blob_data_module)), blob_data_module)
    return index


@pytest.fixture(scope="module")
def blob_data_module():
    rng = np.random.default_rng(91)
    centers = np.array([[0.0] * 8, [20.0] * 8, [-20.0, 20.0] * 4])
    parts = [c + rng.normal(size=(100, 8)) for c in centers]
    return np.concatenate(parts)


class TestSearchByCoarseCenters:
    def test_empty_cluster_set(self, ivf, blob_data_module):
        stats = QueryStats()
        result = search_by_coarse_centers(
            ivf, blob_data_module[0], 5, 100, [], lambda c, limit: [], stats
        )
        assert len(result) == 0
        assert stats.num_candidate_clusters == 0

    def test_visits_clusters_nearest_first(self, ivf, blob_data_module):
        """Clusters are drained in center-distance order: with an L budget of
        one cluster's worth, only the nearest cluster's members appear."""
        query = blob_data_module[0]  # deep inside blob 0
        order = ivf.probe_order(query)
        nearest = int(order[0])
        members = {c: ivf.cluster_members(c).tolist() for c in range(5)}
        budget = max(1, len(members[nearest]) // 2)
        stats = QueryStats()
        result = search_by_coarse_centers(
            ivf, query, budget, budget, list(range(5)),
            lambda c, limit: members[c][:limit], stats,
        )
        assert set(result.ids.tolist()) <= set(members[nearest])

    def test_l_budget_respected_across_clusters(self, ivf, blob_data_module):
        stats = QueryStats()
        result = search_by_coarse_centers(
            ivf, blob_data_module[0], 10**6, 37, list(range(5)),
            lambda c, limit: ivf.cluster_members(c).tolist()[:limit], stats,
        )
        assert stats.num_candidates <= 37

    def test_top_k_selection(self, ivf, blob_data_module):
        stats = QueryStats()
        result = search_by_coarse_centers(
            ivf, blob_data_module[5], 7, 10**6, list(range(5)),
            lambda c, limit: ivf.cluster_members(c).tolist()[:limit], stats,
        )
        assert len(result) == 7
        assert (np.diff(result.distances) >= 0).all()
        # Distances match ADC recomputation.
        table = ivf.distance_table(blob_data_module[5])
        np.testing.assert_allclose(
            ivf.adc_for_ids(table, result.ids.tolist()), result.distances
        )

    def test_stats_filled(self, ivf, blob_data_module):
        stats = QueryStats()
        search_by_coarse_centers(
            ivf, blob_data_module[0], 5, 50, [0, 1, 2],
            lambda c, limit: ivf.cluster_members(c).tolist()[:limit], stats,
        )
        assert stats.num_candidate_clusters == 3
        assert stats.l_used == 50
        assert stats.num_candidates > 0

    def test_empty_iterators(self, ivf, blob_data_module):
        stats = QueryStats()
        result = search_by_coarse_centers(
            ivf, blob_data_module[0], 5, 50, [0, 1], lambda c, limit: [], stats
        )
        assert len(result) == 0

    def test_empty_candidate_set_reports_zero_l_used(self, ivf, blob_data_module):
        # Regression: the early return used to claim l_used == l_budget
        # even though no retrieval ran, skewing Fig. 11-12 averages.
        stats = QueryStats()
        search_by_coarse_centers(
            ivf, blob_data_module[0], 5, 999, [], lambda c, limit: [], stats
        )
        assert stats.l_used == 0

    def test_phase_timers_accumulate_across_calls(self, ivf, blob_data_module):
        # Regression: rank/table/fetch timers used to assign (=) instead of
        # accumulate (+=), so aggregating one stats object over several
        # calls kept only the last call's phases.
        stats = QueryStats()
        for _ in range(2):
            search_by_coarse_centers(
                ivf, blob_data_module[0], 5, 50, [0, 1, 2],
                lambda c, limit: ivf.cluster_members(c).tolist()[:limit], stats,
            )
        single = QueryStats()
        search_by_coarse_centers(
            ivf, blob_data_module[0], 5, 50, [0, 1, 2],
            lambda c, limit: ivf.cluster_members(c).tolist()[:limit], single,
        )
        assert stats.adc_ms > single.adc_ms
        assert stats.rank_ms > single.rank_ms
        assert stats.fetch_ms > single.fetch_ms
        assert stats.table_ms > 0.0


class TestQueryResult:
    def test_empty_constructor(self):
        result = QueryResult.empty()
        assert len(result) == 0
        assert result.ids.dtype == np.int64

    def test_empty_preserves_stats(self):
        stats = QueryStats(num_in_range=7)
        result = QueryResult.empty(stats)
        assert result.stats.num_in_range == 7

    def test_len(self):
        result = QueryResult(
            ids=np.array([1, 2]), distances=np.array([0.1, 0.2])
        )
        assert len(result) == 2
