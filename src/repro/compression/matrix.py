"""The compressed matrix: column groups + linear-algebra kernels.

A :class:`CompressedMatrix` behaves like a read-only dense matrix for the
operations iterative ML needs — ``X @ v``, ``X.T @ u``, ``X.T @ X``,
column sums — all executed directly on the compressed column groups.
It is a :class:`repro.operand.Operand`, planned on its compression
ratio; ``@``, ``.T``, ``matmat``/``rmatmat`` and ``rowsums``/``sum``
come from the base.

Kernels can execute per-column-group partials concurrently on the shared
cost-aware worker pool (:mod:`repro.runtime.parallel`) once a context is
attached with ``set_parallel(ctx)``. Small matrices still dispatch
serially through the cost gate.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import CompressionError
from ..operand import Operand, sum_partials
from ..runtime.parallel import dispatch
from .colgroup import ColumnGroup
from .planner import CompressionPlan, build_groups, plan_matrix

#: CLA must promise at least this compression ratio to leave dense
MIN_CLA_RATIO = 1.2
#: floor on CLA's work fraction (gather cost never fully vanishes)
CLA_MIN_WORK_FRACTION = 0.05


def _group_matvec(v: np.ndarray, n_rows: int, group: ColumnGroup) -> np.ndarray:
    """One group's contribution to X @ v, as a private partial vector."""
    out = np.zeros(n_rows)
    group.matvec_add(v, out)
    return out


def _group_rmatvec(u: np.ndarray, group: ColumnGroup) -> np.ndarray:
    return group.rmatvec(u)


def _group_colsums(group: ColumnGroup) -> np.ndarray:
    return group.colsums()


class CompressedMatrix(Operand, kind="cla"):
    """A matrix stored as compressed column groups."""

    evidence_channel = "cla_ratio"
    _parallel_ctx = None

    def __init__(
        self,
        shape: tuple[int, int],
        groups: list[ColumnGroup],
        plan: CompressionPlan | None = None,
    ):
        self.shape = shape
        self.groups = groups
        self.plan = plan
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
    ) -> "CompressedMatrix":
        """Plan and encode a dense matrix."""
        from ..obs import get_registry, span

        X = np.asarray(X)
        if X.ndim != 2 or X.dtype.kind not in "biuf":
            raise CompressionError(
                f"expected a numeric 2-D matrix, got {X.dtype} of shape {X.shape}"
            )
        X = X.astype(np.float64, copy=False)
        with span(
            "compression.compress", rows=X.shape[0], cols=X.shape[1]
        ) as compress_span:
            plan = plan_matrix(X, sample_fraction)
            matrix = cls(X.shape, build_groups(X, plan), plan)
        registry = get_registry()
        registry.inc("compression.compressions")
        registry.inc("compression.compressed_bytes", matrix.compressed_bytes)
        registry.inc("compression.dense_bytes", matrix.dense_bytes)
        compress_span.set("ratio", matrix.compression_ratio)
        return matrix

    def set_parallel(self, ctx) -> "CompressedMatrix":
        """Attach the :class:`~repro.runtime.parallel.ParallelContext`
        the cost-gated kernels dispatch on; ``None`` or ``False``
        detaches it (chainable)."""
        self._parallel_ctx = ctx or None
        return self

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

    memory_bytes = compressed_bytes

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
        mapped = CompressedMatrix(
            self.shape, [g.map_values(fn) for g in self.groups], self.plan
        )
        # An attached context carries over to the rewritten matrix.
        return mapped.set_parallel(self._parallel_ctx)

    # ------------------------------------------------------------------
    # What the representation planner weighs (repro.operand)
    # ------------------------------------------------------------------
    def evidence(self) -> float:
        return self.compression_ratio

    @classmethod
    def encode(
        cls, dense: np.ndarray, sample_fraction: float
    ) -> "CompressedMatrix":
        return cls.compress(dense, sample_fraction=sample_fraction)

    @classmethod
    def sample_evidence(
        cls, dense: np.ndarray, sample_fraction: float
    ) -> float:
        """The ratio the sampling estimators promise, without encoding."""
        plan = plan_matrix(dense, sample_fraction=sample_fraction)
        est = sum(c.estimated_bytes for c in plan.columns)
        return sum(c.dense_bytes for c in plan.columns) / max(est, 1)

    @staticmethod
    def worth_planning(ratio: float) -> bool:
        return ratio >= MIN_CLA_RATIO

    @staticmethod
    def work_fraction(ratio: float) -> float:
        return max(CLA_MIN_WORK_FRACTION, 1.0 / max(ratio, 1e-9))

    @staticmethod
    def plan_reason(ratio: float, bound: bool) -> str:
        if bound:
            return f"stay compressed, ratio {ratio:.1f}x"
        return f"compressible, est ratio {ratio:.1f}x"

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
            combine=partial(sum_partials, self.shape[0]),
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

    def sq_sum(self) -> float:
        """Sum of squared cells (dictionary-sized rewrite + colsums)."""
        return float(self.map_values(np.square).colsums().sum())

    def decompress(self) -> np.ndarray:
        """Full dense reconstruction (testing / fallback only)."""
        out = np.empty(self.shape)
        for g in self.groups:
            out[:, g.col_indices] = g.decompress()
        return out

    to_dense = decompress
