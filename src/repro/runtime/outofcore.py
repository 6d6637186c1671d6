"""Out-of-core GLM training over blocked matrices.

The estimator-level face of the buffer-pool substrate: training data
lives in a :class:`~repro.runtime.bufferpool.BlockStore` as row panels
and every epoch streams blocks through a byte-budgeted
:class:`~repro.runtime.bufferpool.BufferPool`. When the pool holds the
working set, epochs after the first are memory-speed; when it does not,
the trainer still converges while the pool ledger records the paid I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ExecutionError
from ..ml.base import LinearRegressor
from ..ml.optim import descend
from ..obs import Ledger
from ..resilience.checkpoint import IterativeCheckpointer
from .blocks import BlockedMatrix
from .bufferpool import BlockStore, BufferPool


@dataclass
class OutOfCoreResult:
    weights: np.ndarray
    epochs: int
    loss_history: list[float] = field(default_factory=list)
    pool_stats: Ledger | None = None
    bytes_read_from_store: int = 0


class OutOfCoreLinearRegression(LinearRegressor):
    """Least squares trained by blocked gradient descent under a memory budget.

    Args:
        memory_budget_bytes: buffer-pool capacity. None = everything fits.
        block_rows: row-panel height used when staging the data.
        checkpointer: optional
            :class:`~repro.resilience.checkpoint.IterativeCheckpointer`;
            when set, ``fit`` resumes from the newest valid checkpoint
            and ends bit-identical to an uninterrupted one
            (:func:`~repro.ml.optim.iterate`).
    """

    fit_intercept = False

    def __init__(
        self,
        learning_rate: float = 0.3,
        epochs: int = 100,
        l2: float = 0.0,
        block_rows: int = 1024,
        memory_budget_bytes: int | None = None,
        tol: float = 1e-9,
        checkpointer: IterativeCheckpointer | None = None,
    ):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.block_rows = block_rows
        self.memory_budget_bytes = memory_budget_bytes
        self.tol = tol
        self.checkpointer = checkpointer

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OutOfCoreLinearRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if X.ndim != 2 or len(X) != len(y):
            raise ExecutionError(
                f"need a 2-D X with one target per row, got X of shape "
                f"{X.shape} and y of shape {y.shape}"
            )
        n, d = X.shape

        store = BlockStore()
        blocked = BlockedMatrix.from_array(X, store, "X", self.block_rows)
        budget = (
            self.memory_budget_bytes
            if self.memory_budget_bytes is not None
            else X.nbytes * 2 + 1
        )
        pool = BufferPool(store, capacity_bytes=budget)
        baseline_reads = store.bytes_read

        def residuals(w: np.ndarray):
            """One pass over the blocks: (block, block @ w - y_block)."""
            for b in range(blocked.num_blocks):
                start, end = blocked.block_rows_of(b)
                block = blocked.get_block(b, pool)
                yield block, block @ w - y[start:end]

        def value(w: np.ndarray) -> float:
            return 0.5 * sum(float(r @ r) for _, r in residuals(w)) / n

        def gradient(w: np.ndarray) -> np.ndarray:
            grad = np.zeros(d)
            for block, residual in residuals(w):
                grad += block.T @ residual
            grad = grad / n
            if self.l2 > 0:
                grad = grad + self.l2 * w
            return grad

        run = descend(
            value,
            gradient,
            np.zeros(d),
            self.learning_rate,
            self.epochs,
            self.tol,
            line_search=False,
            checkpointer=self.checkpointer,
        )
        self._unpack(run.weights)
        self.result_ = OutOfCoreResult(
            weights=run.weights,
            epochs=run.iterations,
            loss_history=run.loss_history,
            pool_stats=pool.stats,
            bytes_read_from_store=store.bytes_read - baseline_reads,
        )
        return self
