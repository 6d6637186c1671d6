"""Compressed sparse row (CSR) matrices, from scratch.

Declarative ML systems exploit sparsity end to end: sparse inputs are
stored in CSR and every kernel that touches them respects nnz instead of
n*d. This module is that substrate for the reproduction — built on
numpy primitives only (no scipy), with exactly the operation set GLM
training needs:

* ``X @ v`` and ``X.T @ u`` (via the operand transpose view),
* scaling, element-wise multiply against dense,
* column sums, nnz accounting, dense round-trip.

:class:`CSRMatrix` is a :class:`repro.operand.Operand`, planned on its
density; ``@``, ``.T``, ``rmatmat`` and ``scale`` come from the base, so
the GLM losses and optimizers in :mod:`repro.ml` run on it unchanged.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import ReproError
from ..operand import Operand, estimate_density, sum_partials, zero_preserving
from ..runtime.parallel import ParallelContext, dispatch

#: index-chasing multiplier on CSR's nnz-proportional work
CSR_OVERHEAD = 2.0


class SparseError(ReproError):
    """A sparse-matrix operation failed."""


def _rowblock_matvec(csr: "CSRMatrix", v: np.ndarray, bounds) -> np.ndarray:
    """X[lo:hi] @ v for one row block (private partial)."""
    lo, hi = bounds
    s = slice(csr.indptr[lo], csr.indptr[hi])
    products = csr.data[s] * v[csr.indices[s]]
    out = np.zeros(hi - lo)
    # Segment-sum per row via reduceat (empty rows stay zero).
    local_ptr = csr.indptr[lo:hi] - csr.indptr[lo]
    nonempty = np.diff(csr.indptr[lo : hi + 1]) > 0
    if products.size:
        out[nonempty] = np.add.reduceat(products, local_ptr[nonempty])
    return out


def _rowblock_rmatvec(csr: "CSRMatrix", u: np.ndarray, bounds) -> np.ndarray:
    """X[lo:hi].T @ u[lo:hi] for one row block (private partial)."""
    lo, hi = bounds
    s = slice(csr.indptr[lo], csr.indptr[hi])
    row_of = np.repeat(
        np.arange(lo, hi), np.diff(csr.indptr[lo : hi + 1])
    )
    return np.bincount(
        csr.indices[s],
        weights=csr.data[s] * u[row_of],
        minlength=csr.shape[1],
    )


def _column_matvec(csr: "CSRMatrix", B: np.ndarray, j: int) -> np.ndarray:
    return csr.matvec(B[:, j])


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
    # Parallel dispatch (cost-gated row blocks on the attached pool)
    # ------------------------------------------------------------------
    def _kernel_cost(self) -> float:
        """Flops-equivalents of one matvec-shaped pass: 2 * nnz."""
        return 2.0 * self.nnz

    def _row_blocks(self, ctx: ParallelContext) -> list[tuple[int, int]]:
        """Non-empty ``(lo, hi)`` row ranges, one per worker: the bounds
        of ``np.linspace(0, rows, workers + 1)`` truncated to integers,
        computed without the arrays because every call with a context
        builds them before the engine's gate decides."""
        rows, workers = self.shape[0], max(ctx.max_workers, 1)
        step = rows / workers
        bounds = [int(k * step) for k in range(workers)] + [rows]
        return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

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
        ctx = self._parallel_ctx
        if ctx is None:
            return self._matvec(v)
        # Row blocks are disjoint, so per-row segment sums are
        # bitwise-identical to the serial reduceat path.
        return ctx.pmap(
            partial(_rowblock_matvec, self, v),
            self._row_blocks(ctx),
            cost_hint=self._kernel_cost(),
            site="csr.matvec",
            serial=partial(self._matvec, v),
            combine=np.concatenate,
        )

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        return _rowblock_matvec(self, v, (0, self.shape[0]))

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X.T @ u in O(nnz)."""
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if len(u) != self.shape[0]:
            raise SparseError(
                f"vector length {len(u)} != num rows {self.shape[0]}"
            )
        ctx = self._parallel_ctx
        if ctx is None:
            return self._rmatvec(u)
        # Partials reduce in block order: matches serial up to
        # float-addition reassociation (<= 1e-9).
        return ctx.pmap(
            partial(_rowblock_rmatvec, self, u),
            self._row_blocks(ctx),
            cost_hint=self._kernel_cost(),
            site="csr.rmatvec",
            serial=partial(self._rmatvec, u),
            combine=partial(sum_partials, self.shape[1]),
        )

    def _rmatvec(self, u: np.ndarray) -> np.ndarray:
        return _rowblock_rmatvec(self, u, (0, self.shape[0]))

    def matmat(self, B: np.ndarray) -> np.ndarray:
        """X @ B for dense B, column by column."""
        B = np.asarray(B, dtype=np.float64)
        if B.ndim == 1:
            return self.matvec(B)
        if B.shape[0] != self.shape[1]:
            raise SparseError(f"shape mismatch: {self.shape} @ {B.shape}")
        out = np.empty((self.shape[0], B.shape[1]))
        columns = dispatch(
            self._parallel_ctx,
            partial(_column_matvec, self, B),
            range(B.shape[1]),
            cost_hint=self._kernel_cost() * B.shape[1],
            site="csr.matmat",
        )
        for j, col in enumerate(columns):
            out[:, j] = col
        return out

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
