"""Product quantization (Jégou et al., TPAMI 2011) from scratch.

A :class:`ProductQuantizer` splits each ``d``-dimensional vector into ``M``
sub-vectors of ``d' = d / M`` dimensions, learns a sub-codebook of ``Z``
codewords per subspace with k-means, and represents every vector by the
``M``-tuple of nearest-codeword IDs (its *PQ code*).  At query time a distance
table ``A`` of shape ``(M, Z)`` is computed once, after which the asymmetric
distance to any encoded vector costs ``M`` table lookups.

Codes are stored as ``uint8`` when ``Z <= 256`` (the setting used throughout
the paper) and ``uint16`` otherwise.
"""

from __future__ import annotations

import numpy as np

from .distances import adc_distances, pairwise_squared_l2
from .kmeans import kmeans

__all__ = ["ProductQuantizer"]


class ProductQuantizer:
    """Trainable product quantizer.

    Args:
        num_subspaces: ``M``, the number of subspaces; must divide the
            dimensionality passed to :meth:`fit`.
        num_codewords: ``Z``, the codebook size per subspace (default 256,
            the paper's recommended setting).
        seed: Seed for the per-subspace k-means runs.

    Attributes:
        codebooks: After :meth:`fit`, array of shape ``(M, Z, d')`` holding
            the sub-codewords.
    """

    def __init__(
        self, num_subspaces: int, num_codewords: int = 256, *, seed: int | None = None
    ) -> None:
        if num_subspaces < 1:
            raise ValueError(f"num_subspaces must be >= 1, got {num_subspaces}")
        if num_codewords < 1:
            raise ValueError(f"num_codewords must be >= 1, got {num_codewords}")
        self.num_subspaces = num_subspaces
        self.num_codewords = num_codewords
        self.seed = seed
        self.codebooks: np.ndarray | None = None
        self._dim: int | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.codebooks is not None

    @property
    def dim(self) -> int:
        """Dimensionality of vectors this quantizer was trained on."""
        if self._dim is None:
            raise RuntimeError("ProductQuantizer is not trained")
        return self._dim

    @property
    def subspace_dim(self) -> int:
        """``d' = d / M``, the dimensionality of each subspace."""
        return self.dim // self.num_subspaces

    @property
    def code_dtype(self) -> np.dtype:
        """Dtype used for stored codes (uint8 when ``Z <= 256``)."""
        return np.dtype(np.uint8 if self.num_codewords <= 256 else np.uint16)

    def _require_trained(self) -> np.ndarray:
        if self.codebooks is None:
            raise RuntimeError("ProductQuantizer is not trained; call fit() first")
        return self.codebooks

    def _split(self, vectors: np.ndarray) -> np.ndarray:
        """Reshape ``(n, d)`` vectors into ``(n, M, d')`` sub-vectors."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected shape (n, {self.dim}), got {vectors.shape}"
            )
        return vectors.reshape(
            vectors.shape[0], self.num_subspaces, self.subspace_dim
        )

    # ------------------------------------------------------------------
    # Training / encoding
    # ------------------------------------------------------------------
    def fit(
        self,
        training_vectors: np.ndarray,
        *,
        max_iter: int = 20,
        max_training_points: int | None = 20000,
    ) -> "ProductQuantizer":
        """Learn the ``M`` sub-codebooks from training data.

        Args:
            training_vectors: Array of shape ``(n, d)`` with
                ``d % num_subspaces == 0`` and ``n >= num_codewords``.
            max_iter: Lloyd iterations per subspace.
            max_training_points: Optional subsample cap; training on a random
                subsample is standard PQ practice and keeps fitting fast.

        Returns:
            ``self``, for chaining.
        """
        training_vectors = np.asarray(training_vectors, dtype=np.float64)
        if training_vectors.ndim != 2:
            raise ValueError(
                f"training vectors must be 2-D, got {training_vectors.shape}"
            )
        n, d = training_vectors.shape
        if d % self.num_subspaces != 0:
            raise ValueError(
                f"dimensionality {d} not divisible by M={self.num_subspaces}"
            )
        if n < self.num_codewords:
            raise ValueError(
                f"need at least Z={self.num_codewords} training points, got {n}"
            )
        rng = np.random.default_rng(self.seed)
        if max_training_points is not None and n > max_training_points:
            sample = rng.choice(n, size=max_training_points, replace=False)
            training_vectors = training_vectors[sample]
            n = max_training_points

        self._dim = d
        sub_dim = d // self.num_subspaces
        sub_vectors = training_vectors.reshape(n, self.num_subspaces, sub_dim)
        codebooks = np.empty(
            (self.num_subspaces, self.num_codewords, sub_dim), dtype=np.float64
        )
        for m in range(self.num_subspaces):
            result = kmeans(
                sub_vectors[:, m, :],
                self.num_codewords,
                max_iter=max_iter,
                seed=int(rng.integers(2**31)),
            )
            codebooks[m] = result.centroids
        self.codebooks = codebooks
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Encode vectors into PQ codes.

        Args:
            vectors: Array of shape ``(n, d)``.

        Returns:
            Integer array of shape ``(n, M)`` with the nearest-codeword ID of
            each sub-vector, in :attr:`code_dtype`.
        """
        codebooks = self._require_trained()
        subs = self._split(vectors)
        codes = np.empty((subs.shape[0], self.num_subspaces), dtype=self.code_dtype)
        for m in range(self.num_subspaces):
            dist = pairwise_squared_l2(subs[:, m, :], codebooks[m])
            codes[:, m] = dist.argmin(axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from PQ codes.

        Args:
            codes: Integer array of shape ``(n, M)``.

        Returns:
            Array of shape ``(n, d)``.
        """
        codebooks = self._require_trained()
        codes = np.atleast_2d(np.asarray(codes))
        if codes.shape[1] != self.num_subspaces:
            raise ValueError(
                f"expected codes of width {self.num_subspaces}, got {codes.shape}"
            )
        parts = [codebooks[m][codes[:, m]] for m in range(self.num_subspaces)]
        return np.concatenate(parts, axis=1)

    # ------------------------------------------------------------------
    # Query-time distances
    # ------------------------------------------------------------------
    def distance_table(self, query: np.ndarray) -> np.ndarray:
        """Compute the per-query asymmetric distance table ``A``.

        ``A[m, z]`` is the squared distance between the ``m``-th sub-vector of
        ``query`` and codeword ``z`` of sub-codebook ``m``.  Computing the
        table costs ``O(d * Z)``, after which each encoded vector's distance
        is ``M`` lookups (see :func:`repro.quantization.adc_distances`).

        Args:
            query: Array of shape ``(d,)``.

        Returns:
            Array of shape ``(M, Z)``.
        """
        codebooks = self._require_trained()
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"expected query of shape ({self.dim},), got {query.shape}")
        sub_queries = query.reshape(self.num_subspaces, self.subspace_dim)
        diff = codebooks - sub_queries[:, None, :]
        return np.einsum("mzd,mzd->mz", diff, diff)

    def adc(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Asymmetric distances from ``query`` to the given PQ codes.

        Convenience wrapper combining :meth:`distance_table` with
        :func:`repro.quantization.adc_distances`.
        """
        return adc_distances(self.distance_table(query), codes)

    def quantization_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error of ``vectors`` under this PQ."""
        vectors = np.asarray(vectors, dtype=np.float64)
        reconstructed = self.decode(self.encode(vectors))
        return float(np.mean(np.sum((vectors - reconstructed) ** 2, axis=1)))

    # ------------------------------------------------------------------
    # Memory accounting (used by the Fig. 8 / Fig. 10 cost model)
    # ------------------------------------------------------------------
    def codebook_bytes(self) -> int:
        """C-equivalent bytes of the codebooks (float32 per coordinate)."""
        if self.codebooks is None:
            return 0
        return int(self.codebooks.size) * 4

    def code_bytes_per_vector(self) -> int:
        """Bytes one stored PQ code occupies (1 or 2 per subspace)."""
        return self.num_subspaces * self.code_dtype.itemsize
