"""Recall probes: the controller's ground-truth feedback signal.

A feedback controller that only watches latency will happily drive ``L``
to its floor and serve garbage fast.  Every adaptation cycle therefore
pairs the latency histograms with a *recall probe*: a small, fixed set of
probe queries whose reference answers are known, replayed against the
live serving path, scored as Recall@k.  Two probe flavors cover the two
deployment shapes:

* :class:`RecallProbe` — the strong signal.  Holds the raw reference
  sample (vectors + attributes + ids) and scores the serving path
  against **brute-force exact** answers from
  :func:`repro.eval.groundtruth.exact_range_knn`.  Use it wherever the
  raw vectors are available (benches, single-node services).
* :class:`BudgetRecallProbe` — the self-referential fallback for cluster
  primaries, which hold only PQ codes.  It scores the current-policy
  answer against the *exhaustive-budget* answer (``l_budget`` large
  enough to drain every candidate) from the same index: recall here
  measures exactly what the ``L`` knob controls — truncation loss —
  which is the only loss the controller can influence anyway.

Both probes are deterministic: fixed query set, fixed ranges, fixed
``k``.  A probe never mutates the service; it issues plain reads through
whatever callable the controller hands it, so probe traffic takes the
same locks and caches as client traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..eval.groundtruth import exact_range_knn

__all__ = ["ProbeReport", "RecallProbe", "BudgetRecallProbe"]

#: Budget that drains every candidate cluster — the "exact within the
#: index's candidate enumeration" reference used by BudgetRecallProbe.
EXHAUSTIVE_L = 10**6


@dataclass(frozen=True)
class ProbeReport:
    """One probe pass: mean Recall@k over the probe set.

    Attributes:
        recall: Mean per-query recall in [0, 1] (1.0 when the probe set
            is empty — an empty probe never blocks adaptation).
        num_queries: Probe queries scored.
        k: Result depth scored.
        worst: Minimum per-query recall (the envelope check uses the
            mean; ``worst`` is exported for diagnostics).
    """

    recall: float
    num_queries: int
    k: int
    worst: float = 1.0


def _recall_of(answer_ids: np.ndarray, exact_ids: np.ndarray) -> float:
    """Recall@k of one answer against its reference id set."""
    if exact_ids.size == 0:
        return 1.0
    hits = np.intersect1d(
        np.asarray(answer_ids, dtype=np.int64),
        np.asarray(exact_ids, dtype=np.int64),
        assume_unique=False,
    ).size
    return hits / exact_ids.size


@dataclass
class _ProbeSet:
    """The fixed (query, range) grid a probe replays every pass."""

    queries: np.ndarray
    ranges: list[tuple[float, float]]
    k: int = 10

    def __post_init__(self) -> None:
        self.queries = np.atleast_2d(np.asarray(self.queries, dtype=np.float64))
        if len(self.ranges) != len(self.queries):
            raise ValueError(
                f"{len(self.queries)} queries need {len(self.queries)} "
                f"ranges, got {len(self.ranges)}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


class RecallProbe:
    """Brute-force ground-truth recall over a held reference sample.

    Args:
        vectors: Reference sample vectors, shape ``(n, d)``.  Must cover
            the objects the served index holds (recall against a stale
            reference after writes measures drift, not truncation; call
            :meth:`refresh` after bulk mutations).
        attrs: Attribute per reference vector.
        ids: Object id per reference vector.
        queries: Probe query vectors, shape ``(m, d)``.
        ranges: One ``(lo, hi)`` attribute range per probe query.
        k: Recall depth (default 10, the paper's Recall@10).
    """

    def __init__(
        self,
        vectors: np.ndarray,
        attrs: np.ndarray,
        ids: np.ndarray,
        queries: np.ndarray,
        ranges: list[tuple[float, float]],
        *,
        k: int = 10,
    ) -> None:
        self._vectors = np.asarray(vectors, dtype=np.float64)
        self._attrs = np.asarray(attrs, dtype=np.float64)
        self._ids = np.asarray(ids, dtype=np.int64)
        self._set = _ProbeSet(queries, list(ranges), k)
        self._exact: list[np.ndarray] | None = None

    @classmethod
    def sample(
        cls,
        vectors: np.ndarray,
        attrs: np.ndarray,
        ids: np.ndarray,
        *,
        num_queries: int = 16,
        coverage: float = 0.10,
        k: int = 10,
        seed: int = 0,
    ) -> "RecallProbe":
        """Draw a deterministic probe set from the data itself.

        Queries are a seeded sample of the dataset's own vectors (jittered
        so the exact nearest neighbor is not trivially the query row);
        ranges are attribute windows of width ``coverage`` centered on
        sampled attribute quantiles.
        """
        rng = np.random.default_rng(seed)
        vectors = np.asarray(vectors, dtype=np.float64)
        attrs = np.asarray(attrs, dtype=np.float64)
        num_queries = min(int(num_queries), len(vectors))
        rows = rng.choice(len(vectors), size=num_queries, replace=False)
        scale = float(np.std(vectors)) or 1.0
        queries = vectors[rows] + rng.normal(
            scale=0.05 * scale, size=vectors[rows].shape
        )
        lo_q, hi_q = np.quantile(attrs, [0.0, 1.0])
        span = (hi_q - lo_q) or 1.0
        width = float(coverage) * span
        centers = np.quantile(attrs, rng.uniform(0.05, 0.95, size=num_queries))
        ranges = [
            (float(c - width / 2), float(c + width / 2)) for c in centers
        ]
        return cls(vectors, attrs, np.asarray(ids), queries, ranges, k=k)

    @property
    def num_queries(self) -> int:
        return len(self._set.queries)

    @property
    def k(self) -> int:
        return self._set.k

    def refresh(
        self, vectors: np.ndarray, attrs: np.ndarray, ids: np.ndarray
    ) -> None:
        """Replace the reference sample (after writes) and drop the cache."""
        self._vectors = np.asarray(vectors, dtype=np.float64)
        self._attrs = np.asarray(attrs, dtype=np.float64)
        self._ids = np.asarray(ids, dtype=np.int64)
        self._exact = None

    def _exact_answers(self) -> list[np.ndarray]:
        if self._exact is None:
            self._exact = [
                exact_range_knn(
                    self._vectors,
                    self._attrs,
                    query,
                    lo,
                    hi,
                    self._set.k,
                    ids=self._ids,
                )
                for query, (lo, hi) in zip(self._set.queries, self._set.ranges)
            ]
        return self._exact

    def measure(self, query_fn) -> ProbeReport:
        """Replay the probe set through ``query_fn`` and score it.

        Args:
            query_fn: ``query_fn(vector, lo, hi, k) -> QueryResult`` (or
                anything with an ``ids`` array) — typically
                ``service.query`` or a tiered read path's bound method.
        """
        exact = self._exact_answers()
        recalls = []
        for query, (lo, hi), reference in zip(
            self._set.queries, self._set.ranges, exact
        ):
            answer = query_fn(query, lo, hi, self._set.k)
            recalls.append(_recall_of(answer.ids, reference))
        if not recalls:
            return ProbeReport(1.0, 0, self._set.k)
        return ProbeReport(
            float(np.mean(recalls)),
            len(recalls),
            self._set.k,
            worst=float(np.min(recalls)),
        )


class BudgetRecallProbe:
    """Self-referential recall: current policy vs exhaustive L budget.

    For serving nodes that hold only PQ codes (cluster primaries), exact
    ground truth is unavailable — but the ``L`` knob only ever *truncates*
    the candidate drain, so scoring the policy answer against the same
    index's exhaustive-budget answer isolates exactly the loss the
    controller's moves introduce.  A recall of 1.0 means the current
    budget already drains everything the index would ever surface.

    Args:
        queries: Probe query vectors.
        ranges: One ``(lo, hi)`` per query.
        k: Recall depth.
    """

    def __init__(
        self,
        queries: np.ndarray,
        ranges: list[tuple[float, float]],
        *,
        k: int = 10,
    ) -> None:
        self._set = _ProbeSet(queries, list(ranges), k)

    @classmethod
    def from_index(
        cls,
        index,
        *,
        num_queries: int = 12,
        coverage: float = 0.25,
        k: int = 10,
        seed: int = 0,
    ) -> "BudgetRecallProbe":
        """Synthesize a probe set from an index's own trained state.

        Queries are jittered coarse-cluster centers (always in-distribution
        for the PQ codebooks); ranges are windows of width ``coverage``
        over the live attribute span — no raw vectors required.
        """
        rng = np.random.default_rng(seed)
        ivf = getattr(index, "ivf", None)
        attr_map = getattr(index, "_attr", None)
        if ivf is None or attr_map is None:
            raise TypeError(
                f"need a RangePQ-family index, got {type(index).__name__}"
            )
        centers = np.asarray(ivf.coarse.centers, dtype=np.float64)
        rows = rng.choice(
            len(centers), size=min(int(num_queries), len(centers)), replace=False
        )
        scale = float(np.std(centers)) or 1.0
        queries = centers[rows] + rng.normal(
            scale=0.05 * scale, size=centers[rows].shape
        )
        attrs = np.asarray(sorted(attr_map.values()), dtype=np.float64)
        lo_q, hi_q = float(attrs[0]), float(attrs[-1])
        width = float(coverage) * ((hi_q - lo_q) or 1.0)
        anchors = np.quantile(attrs, rng.uniform(0.05, 0.95, size=len(rows)))
        ranges = [
            (float(a - width / 2), float(a + width / 2)) for a in anchors
        ]
        return cls(queries, ranges, k=k)

    @property
    def num_queries(self) -> int:
        return len(self._set.queries)

    @property
    def k(self) -> int:
        return self._set.k

    def measure(self, query_fn) -> ProbeReport:
        """Score policy answers against exhaustive-budget answers.

        Args:
            query_fn: ``query_fn(vector, lo, hi, k, l_budget=None) ->
                QueryResult``.  Called twice per probe query: once with
                the default (policy-chosen) budget, once with
                ``l_budget=EXHAUSTIVE_L`` as the reference.
        """
        recalls = []
        for query, (lo, hi) in zip(self._set.queries, self._set.ranges):
            reference = query_fn(query, lo, hi, self._set.k, l_budget=EXHAUSTIVE_L)
            answer = query_fn(query, lo, hi, self._set.k)
            recalls.append(
                _recall_of(
                    answer.ids, np.asarray(reference.ids, dtype=np.int64)
                )
            )
        if not recalls:
            return ProbeReport(1.0, 0, self._set.k)
        return ProbeReport(
            float(np.mean(recalls)),
            len(recalls),
            self._set.k,
            worst=float(np.min(recalls)),
        )
