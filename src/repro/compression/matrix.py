"""The compressed matrix: column groups + linear-algebra kernels.

A :class:`CompressedMatrix` behaves like a read-only dense matrix for the
operations iterative ML needs — ``X @ v``, ``X.T @ u``, ``X.T @ X``,
column sums — all executed directly on the compressed column groups.

Kernels can execute per-column-group partials concurrently on the shared
cost-aware worker pool (:mod:`repro.runtime.parallel`): pass
``parallel=True`` to :meth:`CompressedMatrix.compress` / the constructor,
or attach a context with :meth:`CompressedMatrix.set_parallel`. Small
matrices still dispatch serially through the cost gate.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import CompressionError
from ..runtime.parallel import ParallelContext, dispatch, resolve_context
from .colgroup import ColumnGroup
from .planner import CompressionPlan, build_groups, plan_matrix


def _group_matvec(v: np.ndarray, n_rows: int, group: ColumnGroup) -> np.ndarray:
    """One group's contribution to X @ v, as a private partial vector."""
    out = np.zeros(n_rows)
    group.matvec_add(v, out)
    return out


def _sum_partials(size: int, partials: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(size)
    for p in partials:
        out += p
    return out


def _group_rmatvec(u: np.ndarray, group: ColumnGroup) -> np.ndarray:
    return group.rmatvec(u)


def _group_colsums(group: ColumnGroup) -> np.ndarray:
    return group.colsums()


class CompressedMatrix:
    """A matrix stored as compressed column groups."""

    def __init__(
        self,
        shape: tuple[int, int],
        groups: list[ColumnGroup],
        plan: CompressionPlan | None = None,
        parallel: bool | ParallelContext = False,
    ):
        self.shape = shape
        self.groups = groups
        self.plan = plan
        self._parallel_ctx = resolve_context(parallel)
        covered = sorted(
            int(c) for g in groups for c in g.col_indices
        )
        if covered != list(range(shape[1])):
            raise CompressionError(
                f"groups must cover each of {shape[1]} columns exactly once, "
                f"got {covered}"
            )

    @classmethod
    def compress(
        cls,
        X: np.ndarray,
        sample_fraction: float = 0.05,
        exact: bool = False,
        cocode: bool = True,
        seed: int = 0,
        parallel: bool | ParallelContext = False,
    ) -> "CompressedMatrix":
        """Plan and encode a dense matrix."""
        from ..obs import get_registry, span

        X = np.asarray(X, dtype=np.float64)
        with span(
            "compression.compress", rows=X.shape[0], cols=X.shape[1]
        ) as compress_span:
            plan = plan_matrix(X, sample_fraction, exact, cocode, seed)
            matrix = cls(
                X.shape, build_groups(X, plan), plan, parallel=parallel
            )
        registry = get_registry()
        registry.inc("compression.compressions")
        registry.inc("compression.compressed_bytes", matrix.compressed_bytes)
        registry.inc("compression.dense_bytes", matrix.dense_bytes)
        compress_span.set("ratio", matrix.compression_ratio)
        return matrix

    # ------------------------------------------------------------------
    # Parallel dispatch
    # ------------------------------------------------------------------
    def set_parallel(
        self, parallel: bool | ParallelContext = True
    ) -> "CompressedMatrix":
        """Enable/disable concurrent per-group kernels (chainable)."""
        self._parallel_ctx = resolve_context(parallel)
        return self

    @property
    def parallel_context(self) -> ParallelContext | None:
        return self._parallel_ctx

    def _kernel_cost(self) -> float:
        """Flops-equivalents of one matvec-shaped pass: 2 * nnz-dense."""
        return 2.0 * self.shape[0] * self.shape[1]

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def compressed_bytes(self) -> int:
        return sum(g.compressed_bytes() for g in self.groups)

    @property
    def dense_bytes(self) -> int:
        return self.shape[0] * self.shape[1] * 8

    @property
    def compression_ratio(self) -> float:
        """Dense size over compressed size (higher is better)."""
        return self.dense_bytes / max(self.compressed_bytes, 1)

    @property
    def memory_bytes(self) -> int:
        """Uniform operand-protocol alias for :attr:`compressed_bytes`."""
        return self.compressed_bytes

    def schemes(self) -> dict[str, int]:
        """Count of groups per encoding scheme."""
        out: dict[str, int] = {}
        for g in self.groups:
            out[g.scheme] = out.get(g.scheme, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Elementwise value rewrites (no decompression)
    # ------------------------------------------------------------------
    def map_values(self, fn) -> "CompressedMatrix":
        """New compressed matrix with ``fn`` applied to every cell.

        Dictionary-coded groups rewrite their dictionaries (and, for
        OLE, the default tuple), so the work is proportional to the
        compressed size, not n x d. ``fn`` must be a vectorized
        elementwise map.
        """
        return CompressedMatrix(
            self.shape,
            [g.map_values(fn) for g in self.groups],
            self.plan,
            parallel=self._parallel_ctx or False,
        )

    def scale(self, alpha: float) -> "CompressedMatrix":
        """alpha * X by rewriting column-group values."""
        alpha = float(alpha)
        return self.map_values(lambda values: values * alpha)

    def add_scalar(self, c: float) -> "CompressedMatrix":
        """X + c by rewriting column-group values."""
        c = float(c)
        return self.map_values(lambda values: values + c)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X @ v on the compressed representation.

        Parallel path: each group produces a private partial output
        vector; partials reduce in group order, so the result matches
        the serial path to float-addition reassociation (<= 1e-9).
        """
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if len(v) != self.shape[1]:
            raise CompressionError(
                f"vector length {len(v)} != num columns {self.shape[1]}"
            )
        ctx = self._parallel_ctx
        if ctx is None:
            return self._matvec(v)
        return ctx.pmap(
            partial(_group_matvec, v, self.shape[0]),
            self.groups,
            cost_hint=self._kernel_cost(),
            site="cla.matvec",
            serial=partial(self._matvec, v),
            combine=partial(_sum_partials, self.shape[0]),
        )

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        # Serial kernel: accumulate in place — cheaper than the per-group
        # partial-vector formulation the parallel path needs.
        out = np.zeros(self.shape[0])
        for g in self.groups:
            g.matvec_add(v, out)
        return out

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X.T @ u on the compressed representation.

        Groups cover disjoint columns, so the parallel path scatters
        independent per-group results and is bitwise-identical to serial.
        """
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if len(u) != self.shape[0]:
            raise CompressionError(
                f"vector length {len(u)} != num rows {self.shape[0]}"
            )
        out = np.zeros(self.shape[1])
        partials = dispatch(
            self._parallel_ctx,
            partial(_group_rmatvec, u),
            self.groups,
            cost_hint=self._kernel_cost(),
            site="cla.rmatvec",
        )
        for g, values in zip(self.groups, partials):
            out[g.col_indices] = values
        return out

    def colsums(self) -> np.ndarray:
        out = np.zeros(self.shape[1])
        partials = dispatch(
            self._parallel_ctx,
            _group_colsums,
            self.groups,
            cost_hint=float(self.shape[0]) * self.shape[1],
            site="cla.colsums",
        )
        for g, values in zip(self.groups, partials):
            out[g.col_indices] = values
        return out

    def _gram_column(self, j: int) -> np.ndarray:
        unit = np.zeros(self.shape[1])
        unit[j] = 1.0
        return self.rmatvec(self.matvec(unit))

    def gram(self) -> np.ndarray:
        """X.T @ X via d compressed matrix-vector products (TSMM).

        Column-at-a-time: for each column j, X.T @ X[:, j]. Exploits the
        compressed matvec for each unit vector, avoiding decompression.
        The parallel path fans out over columns; the inner kernels nest
        serially (the pool's re-entrancy guard), so per-column results
        are identical to the serial path.
        """
        d = self.shape[1]
        out = np.empty((d, d))
        columns = dispatch(
            self._parallel_ctx,
            self._gram_column,
            range(d),
            cost_hint=2.0 * d * self._kernel_cost(),
            site="cla.tsmm",
        )
        for j, col in enumerate(columns):
            out[:, j] = col
        # Symmetrize against floating-point asymmetry.
        return (out + out.T) / 2.0

    def tsmm(self) -> np.ndarray:
        """Transpose-self matrix multiply — alias for :meth:`gram`."""
        return self.gram()

    def matmat(self, B: np.ndarray) -> np.ndarray:
        """X @ B for a dense (d, k) right operand, one matvec per column."""
        B = np.asarray(B, dtype=np.float64)
        if B.ndim == 1:
            return self.matvec(B)
        out = np.empty((self.shape[0], B.shape[1]))
        for j in range(B.shape[1]):
            out[:, j] = self.matvec(B[:, j])
        return out

    def rmatmat(self, U: np.ndarray) -> np.ndarray:
        """X.T @ U for a dense (n, k) left-transposed operand."""
        U = np.asarray(U, dtype=np.float64)
        if U.ndim == 1:
            return self.rmatvec(U)
        out = np.empty((self.shape[1], U.shape[1]))
        for j in range(U.shape[1]):
            out[:, j] = self.rmatvec(U[:, j])
        return out

    def rowsums(self) -> np.ndarray:
        """Row sums, computed as X @ ones on the compressed form."""
        return self.matvec(np.ones(self.shape[1]))

    def sum(self) -> float:
        """Sum of every cell."""
        return float(self.colsums().sum())

    def sq_sum(self) -> float:
        """Sum of squared cells (dictionary-sized rewrite + colsums)."""
        return float(self.map_values(np.square).colsums().sum())

    def __matmul__(self, other):
        other = np.asarray(other, dtype=np.float64)
        return self.matvec(other) if other.ndim == 1 else self.matmat(other)

    def decompress(self) -> np.ndarray:
        """Full dense reconstruction (testing / fallback only)."""
        out = np.empty(self.shape)
        for g in self.groups:
            out[:, g.col_indices] = g.decompress()
        return out

    def to_dense(self) -> np.ndarray:
        """Uniform operand-protocol alias for :meth:`decompress`."""
        return self.decompress()
