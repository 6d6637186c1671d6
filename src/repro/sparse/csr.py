"""Compressed sparse row (CSR) matrices, from scratch.

Declarative ML systems exploit sparsity end to end: sparse inputs are
stored in CSR and every kernel that touches them respects nnz instead of
n*d. This module is that substrate for the reproduction — built on
numpy primitives only (no scipy), with exactly the operation set GLM
training needs:

* ``X @ v`` and ``X.T @ u`` (via the operand transpose view),
* zero-preserving value maps, element-wise multiply against dense,
* column sums, nnz accounting, dense round-trip.

:class:`CSRMatrix` is a :class:`repro.operand.Operand`, planned on its
density; ``@``, ``.T`` and ``rmatmat`` come from the base, and ``matmat``
is the base's column loop behind a shape check, so the GLM losses and
optimizers in :mod:`repro.ml` run on it unchanged.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..operand import Operand, estimate_density, zero_preserving

#: index-chasing multiplier on CSR's nnz-proportional work
CSR_OVERHEAD = 2.0


class SparseError(ReproError):
    """A sparse-matrix operation failed."""


class CSRMatrix(Operand, kind="csr"):
    """A read-only CSR matrix."""

    evidence_channel = "density"
    zero_preserving_maps_only = True

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._validate()

    def _validate(self) -> None:
        n, d = self.shape
        if len(self.indptr) != n + 1:
            raise SparseError(
                f"indptr length {len(self.indptr)} != rows+1 ({n + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise SparseError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise SparseError("indices and data lengths differ")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= d
        ):
            raise SparseError(f"column indices out of range [0, {d})")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, X: np.ndarray, threshold: float = 0.0) -> "CSRMatrix":
        """Encode a dense array; |values| <= threshold become implicit zeros."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise SparseError(f"expected a 2-D array, got {X.ndim}-D")
        mask = np.abs(X) > threshold
        indptr = np.zeros(X.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=indptr[1:])
        rows, cols = np.nonzero(mask)
        return cls(X[rows, cols], cols, indptr, X.shape)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    memory_bytes = nbytes

    # ------------------------------------------------------------------
    # What the representation planner weighs (repro.operand)
    # ------------------------------------------------------------------
    def evidence(self) -> float:
        return self.density

    @classmethod
    def encode(cls, dense: np.ndarray, sample_fraction: float) -> "CSRMatrix":
        return cls.from_dense(dense)

    @classmethod
    def sample_evidence(
        cls, dense: np.ndarray, sample_fraction: float
    ) -> float:
        return estimate_density(dense)

    @staticmethod
    def work_fraction(density: float) -> float:
        return min(1.0, density * CSR_OVERHEAD)

    @staticmethod
    def plan_reason(density: float, bound: bool) -> str:
        if bound:
            return f"stay sparse, density {density:.3f}"
        return f"sparse, est density {density:.3f}"

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X @ v in O(nnz)."""
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if len(v) != self.shape[1]:
            raise SparseError(
                f"vector length {len(v)} != num columns {self.shape[1]}"
            )
        products = self.data * v[self.indices]
        out = np.zeros(self.shape[0])
        # Segment-sum per row via reduceat (empty rows stay zero).
        nonempty = np.diff(self.indptr) > 0
        if products.size:
            out[nonempty] = np.add.reduceat(products, self.indptr[:-1][nonempty])
        return out

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X.T @ u in O(nnz)."""
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if len(u) != self.shape[0]:
            raise SparseError(
                f"vector length {len(u)} != num rows {self.shape[0]}"
            )
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return np.bincount(
            self.indices, weights=self.data * u[row_of], minlength=self.shape[1]
        )

    def matmat(self, B: np.ndarray) -> np.ndarray:
        """X @ B for dense B; a B of the wrong height is refused even when
        it has no columns for ``matvec`` to refuse."""
        B = np.asarray(B, dtype=np.float64)
        if B.ndim == 2 and B.shape[0] != self.shape[1]:
            raise SparseError(f"shape mismatch: {self.shape} @ {B.shape}")
        return super().matmat(B)

    def gram(self) -> np.ndarray:
        """X.T @ X from per-row outer products, O(sum of row_nnz^2)."""
        d = self.shape[1]
        out = np.zeros((d, d))
        for i in range(self.shape[0]):
            s = slice(self.indptr[i], self.indptr[i + 1])
            idx = self.indices[s]
            if idx.size:
                vals = self.data[s]
                out[np.ix_(idx, idx)] += np.outer(vals, vals)
        return out

    def map_values(self, fn) -> "CSRMatrix":
        """New CSR with ``fn`` applied to the stored nonzeros.

        Implicit zeros stay implicit, so only zero-preserving maps
        (``fn(0) == 0``) are exact; anything else is refused.
        """
        if not zero_preserving(fn):
            raise SparseError("a CSR value map must send 0 to 0")
        return CSRMatrix(fn(self.data), self.indices, self.indptr, self.shape)

    def sq_sum(self) -> float:
        """Sum of squared cells in O(nnz)."""
        return float(np.dot(self.data, self.data))

    def multiply_dense(self, D: np.ndarray) -> "CSRMatrix":
        """Element-wise X * D for dense D (result stays sparse)."""
        D = np.asarray(D, dtype=np.float64)
        if D.shape != self.shape:
            raise SparseError(f"shape mismatch: {self.shape} * {D.shape}")
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        new_data = self.data * D[row_of, self.indices]
        return CSRMatrix(new_data, self.indices, self.indptr, self.shape)

    def colsums(self) -> np.ndarray:
        return np.bincount(
            self.indices, weights=self.data, minlength=self.shape[1]
        )

    def rowsums(self) -> np.ndarray:
        out = np.zeros(self.shape[0])
        nonempty = np.diff(self.indptr) > 0
        if self.data.size:
            out[nonempty] = np.add.reduceat(
                self.data, self.indptr[:-1][nonempty]
            )
        return out

    def sum(self) -> float:
        return float(self.data.sum())

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[row_of, self.indices] = self.data
        return out
