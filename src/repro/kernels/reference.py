"""The ``reference`` kernel backend: the original numpy hot-path code.

Every function here is the pre-refactor implementation moved verbatim from
its original call site (``quantization/distances.py``, ``ivf/ivfpq.py``,
``core/search.py``).  This backend **is** the bitwise contract: any other
backend must return bit-identical arrays for every valid input (the
property suite in ``tests/test_kernels.py`` enforces it), so the dispatcher
can swap implementations without perturbing a single query result.

Input validation lives in the dispatcher (:mod:`repro.kernels`); backends
receive pre-validated arrays and may assume the documented shapes/dtypes.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "CHUNK_ROWS",
    "squared_l2",
    "pairwise_squared_l2",
    "adc_distances",
    "adc_for_rows",
    "rows_for_ids",
    "top_k",
    "topk_order",
    "stable_order",
    "drain",
    "drain_chunks",
]

#: Default rows per chunk when materializing pairwise distance blocks.
CHUNK_ROWS = 4096


def squared_l2(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``||points[i] - query||^2`` for each row (shape ``(n,)``)."""
    diff = points - query
    return np.einsum("ij,ij->i", diff, diff)


def pairwise_squared_l2(
    a: np.ndarray, b: np.ndarray, chunk_rows: int = CHUNK_ROWS
) -> np.ndarray:
    """All-pairs squared L2 via the norm expansion, row-chunked (``(n, m)``)."""
    b_norms = np.einsum("ij,ij->i", b, b)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.result_type(a, b, np.float32))
    for start in range(0, a.shape[0], chunk_rows):
        stop = min(start + chunk_rows, a.shape[0])
        chunk = a[start:stop]
        block = chunk @ b.T
        block *= -2.0
        block += np.einsum("ij,ij->i", chunk, chunk)[:, None]
        block += b_norms[None, :]
        np.maximum(block, 0.0, out=block)
        out[start:stop] = block
    return out


def adc_distances(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``sum_m table[m, codes[x, m]]`` per code row (shape ``(n,)``)."""
    m = table.shape[0]
    return table[np.arange(m)[None, :], codes].sum(axis=1)  # repro: noqa-R002 — index plane, verbatim contract


def adc_for_rows(
    table: np.ndarray, codes: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """ADC distances for specific rows of a stored code matrix."""
    return adc_distances(table, codes[rows])


def rows_for_ids(row_of: dict, ids: Sequence[int]) -> np.ndarray:
    """Gather ``row_of[oid]`` for every oid into an int64 array.

    Raises:
        KeyError: If any oid is absent (the bare per-key error; callers
            that need a named diagnostic wrap it).
    """
    if len(ids) == 1:
        return np.asarray([row_of[int(ids[0])]], dtype=np.int64)
    # itemgetter gathers all rows in one C-level call.
    return np.asarray(
        operator.itemgetter(*[int(oid) for oid in ids])(row_of),
        dtype=np.int64,
    )


def top_k(
    ids: np.ndarray, distances: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Select the ``k`` smallest distances, ascending, with matching IDs."""
    order = topk_order(distances, k)
    return ids[order], distances[order]


def topk_order(distances: np.ndarray, k: int) -> np.ndarray:
    """Index order of the ``k`` smallest distances (all of them if ``k >= n``).

    Matches the rerank step of ``search_by_coarse_centers``: exactly the
    first ``k`` entries of the stable argsort, so ties resolve by ascending
    position — also at the ``k``-th value, where an ``argpartition`` alone
    would admit an arbitrary subset of the tied entries.
    """
    return stable_order(distances, k)


def stable_order(values: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Indices sorting ``values`` ascending, ties by position (full sort).

    ``limit`` keeps only the first ``limit`` indices of that stable order;
    accelerated backends may compute the prefix without the full sort, but
    the returned prefix must be bit-identical to slicing the full result.
    """
    order = np.argsort(values, kind="stable")
    if limit is None:
        return order
    return order[:limit]


def drain(iterable: Iterable[int], limit: int | None) -> list[int]:
    """First ``limit`` items of ``iterable`` as a list (all if ``None``)."""
    if limit is None:
        return list(iterable)
    out: list[int] = []
    iterator: Iterator[int] = iter(iterable)
    for item in iterator:
        out.append(item)
        if len(out) >= limit:
            break
    return out


def drain_chunks(
    chunks: Iterable[Sequence[int]], limit: int | None
) -> list[int]:
    """First ``limit`` items across an iterable of ID sequences."""
    if limit is None:
        out: list[int] = []
        for chunk in chunks:
            out.extend(chunk)
        return out
    out = []
    for chunk in chunks:
        need = limit - len(out)
        if need <= 0:
            break
        if len(chunk) > need:
            # Slice before materializing: lists/ndarrays copy only the
            # ``need`` items kept, so endpoint-bucket scans stay O(need).
            chunk = chunk[:need]
        out.extend(chunk)
    return out
