"""The ``fast`` kernel backend: fused/batched numpy, bit-identical results.

Wins over :mod:`repro.kernels.reference` come from removing per-call
temporaries and interpreter overhead, never from reordering floating-point
reductions:

* **Hoisted gather indices** — the per-subspace flat offsets
  ``arange(M) * Z`` for an ADC table are built once per ``(M, Z)`` shape
  and cached, instead of allocating an ``arange`` on every call.
* **Packed flat gathers** — ``table.take(flat_offsets + codes)`` gathers
  all ``n·M`` table entries through one C-level flat ``take`` instead of
  a two-axis fancy index (which materializes a broadcasted index pair).
  The gathered ``(n, M)`` block is identical element-for-element, so the
  trailing ``.sum(axis=1)`` reduces in exactly the reference order.
* **Fused row gathers** — :func:`adc_for_rows` pulls the candidate code
  rows with ``take(..., axis=0)`` straight into the flat-offset gather,
  avoiding the intermediate ``codes[rows]`` fancy-index copy semantics.
* **Partition-based stable prefixes** — :func:`stable_order` with a
  ``limit`` replaces the full ``O(K log K)`` stable argsort with an
  ``O(K)`` partition plus an ``O(limit log limit)`` sort, reconstructing
  the stable tie order at the cut boundary explicitly so the prefix is
  bit-identical to slicing the full stable sort.  :func:`topk_order` and
  :func:`top_k` are that prefix.
* **C-level drains** — :func:`drain` uses ``itertools.islice`` to stop
  iterator consumption in C instead of a per-item Python loop.

``squared_l2`` / ``pairwise_squared_l2`` reuse the reference kernels
unchanged: their cost is one BLAS/einsum call whose reduction order is the
bitwise contract, so there is nothing to fuse without breaking it.

Correctness contract: for any *valid* input (codes in ``[0, Z)``) every
function returns arrays bit-identical to the reference backend.  For
out-of-range codes the two backends legitimately diverge (flat offsets wrap
differently than per-row fancy indexing); ``REPRO_SANITIZE=1`` makes the
dispatcher reject such codes before they reach either backend.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .reference import drain_chunks, pairwise_squared_l2, squared_l2

__all__ = [
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

#: Cached per-(M, Z) flat gather offsets: ``arange(M) * Z`` as intp.
_OFFSET_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _flat_offsets(num_subspaces: int, num_codewords: int) -> np.ndarray:
    """The cached ``arange(M) * Z`` row offsets for flat table gathers."""
    key = (num_subspaces, num_codewords)
    offsets = _OFFSET_CACHE.get(key)
    if offsets is None:
        offsets = np.arange(num_subspaces, dtype=np.intp) * num_codewords
        offsets.setflags(write=False)
        _OFFSET_CACHE[key] = offsets
    return offsets


#: Code rows gathered per block: (8192, 8) intp + float64 temps stay ~1 MB,
#: resident in L2, instead of streaming multi-MB temporaries through DRAM.
_SCAN_BLOCK = 8192


def adc_distances(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """ADC sums, fused per shape (``(n,)``), bit-identical to reference.

    Two strategies:

    * ``M == 8`` (the SIFT PQ shape, and the overwhelmingly common case):
      one L1-resident ``take`` per subspace column, combined with the
      exact 8-accumulator tree ``((c0+c1)+(c2+c3)) + ((c4+c5)+(c6+c7))``
      — the same association order numpy's pairwise-sum base case applies
      to an 8-wide ``sum(axis=1)``, so the result is bit-identical while
      skipping the ``(n, 8)`` gather temporary entirely.
    * Otherwise: blocked flat ``take`` over the raveled table
      (``table[m, z] == table.ravel()[m * Z + z]`` for a C-contiguous
      table) followed by the reference's own ``sum(axis=1)``.  Each row
      sums independently, so processing rows in cache-sized blocks cannot
      perturb a single bit of the output.
    """
    m, z = table.shape
    if m == 8 and table.dtype.kind == "f":
        rowwise = np.ascontiguousarray(table)
        c = [rowwise[j].take(codes[:, j]) for j in range(8)]
        return ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
    offsets = _flat_offsets(m, z)
    flat_table = np.ascontiguousarray(table).reshape(-1)
    n = codes.shape[0]
    first = np.take(flat_table, offsets + codes[:_SCAN_BLOCK]).sum(axis=1)
    if n <= _SCAN_BLOCK:
        return first
    out = np.empty(n, dtype=first.dtype)
    out[:_SCAN_BLOCK] = first
    for start in range(_SCAN_BLOCK, n, _SCAN_BLOCK):
        stop = start + _SCAN_BLOCK
        out[start:stop] = np.take(
            flat_table, offsets + codes[start:stop]
        ).sum(axis=1)
    return out


def adc_for_rows(
    table: np.ndarray, codes: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Fused candidate-row gather + ADC sum (shape ``(len(rows),)``)."""
    sub = codes.take(rows, axis=0)
    return adc_distances(table, sub)


def rows_for_ids(row_of: dict, ids: Sequence[int]) -> np.ndarray:
    """Row lookups streamed straight into an int64 array via ``fromiter``.

    ``np.int64`` keys hash identically to the Python ints stored in the
    map, so no per-element ``int()`` conversion is needed.

    Raises:
        KeyError: If any oid is absent (bare per-key error, as reference).
    """
    return np.fromiter(
        map(row_of.__getitem__, ids), dtype=np.int64, count=len(ids)
    )


def stable_order(values: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Stable ascending order, computing only the first ``limit`` indices.

    With ``limit``, an ``O(K)`` value partition finds the boundary (the
    ``limit``-th smallest value); all positions strictly below it belong to
    the prefix, and ties *at* the boundary are admitted lowest-position
    first — exactly the subset the full stable argsort would keep.  A
    stable sort of that subset (positions pre-sorted ascending within each
    value class by construction of ``flatnonzero``) reproduces the full
    sort's prefix bit-for-bit.
    """
    size = len(values)
    if limit is None or limit >= size:
        order = np.argsort(values, kind="stable")
        return order if limit is None else order[:limit]
    if limit <= 0:
        return np.empty(0, dtype=np.intp)
    boundary = np.partition(values, limit - 1)[limit - 1]
    strict = np.flatnonzero(values < boundary)
    need = limit - strict.size  # >= 1: at most limit-1 values are strictly smaller
    ties = np.flatnonzero(values == boundary)[:need]
    prefix = np.concatenate([strict, ties])
    return prefix[np.argsort(values[prefix], kind="stable")]


def top_k(
    ids: np.ndarray, distances: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Select the ``k`` smallest distances, ascending, with matching IDs."""
    order = topk_order(distances, k)
    return ids[order], distances[order]


def topk_order(distances: np.ndarray, k: int) -> np.ndarray:
    """The stable argsort's first ``k`` indices, via :func:`stable_order`."""
    return stable_order(distances, k)


def drain(iterable: Iterable[int], limit: int | None) -> list[int]:
    """First ``limit`` items of ``iterable`` (all if ``None``), via islice."""
    if limit is None:
        return list(iterable)
    return list(islice(iterable, limit))
