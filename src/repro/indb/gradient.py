"""Incremental gradient descent as a user-defined aggregate (Bismarck).

One epoch of IGD is one aggregation pass: the transition function applies
a pointwise gradient step per tuple, and parallel partitions merge by
model averaging. Epochs repeat the pass; the shuffle policy controls the
row order the engine feeds the aggregate — Bismarck's key performance
finding is that *shuffling once* before training nearly matches per-epoch
reshuffling at a fraction of the cost, while *no* shuffling on clustered
data hurts convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..ml.losses import Loss
from ..ml.optim import descend, l2_penalized
from ..runtime.parallel import ParallelContext
from ..storage.table import Table
from .uda import UDA, BlockSumsUDA, run_uda

SHUFFLE_POLICIES = ("none", "once", "each")


@dataclass
class IGDState:
    """Running model state inside the aggregate."""

    weights: np.ndarray
    examples: int = 0


class IGDTransition(UDA[IGDState, np.ndarray]):
    """One IGD epoch as a UDA.

    The last selected column is the label; the rest are features. The
    step size is fixed for the epoch (the trainer decays it across
    epochs).
    """

    def __init__(self, loss: Loss, dim: int, learning_rate: float, l2: float,
                 initial: np.ndarray | None = None):
        self.loss = loss
        self.dim = dim
        self.learning_rate = learning_rate
        self.l2 = l2
        self.initial = initial

    def initialize(self) -> IGDState:
        start = (
            self.initial.copy() if self.initial is not None else np.zeros(self.dim)
        )
        return IGDState(weights=start)

    def transition_many(self, state: IGDState, block: np.ndarray) -> IGDState:
        # strictly one step per row, in row order: that is the algorithm
        step, weights = self.loss.pointwise_gradient, state.weights
        rate, l2 = self.learning_rate, self.l2
        for x, y in zip(block[:, :-1], block[:, -1].tolist()):
            grad = step(x, y, weights)
            if l2 > 0:
                grad = grad + l2 * weights
            weights -= rate * grad
        state.examples += len(block)
        return state

    def merge(self, left: IGDState, right: IGDState) -> IGDState:
        # Bismarck-style model averaging, weighted by examples seen.
        total = left.examples + right.examples
        if total == 0:
            return left
        weights = (
            left.weights * left.examples + right.weights * right.examples
        ) / total
        return IGDState(weights=weights, examples=total)

    def finalize(self, state: IGDState) -> np.ndarray:
        return state.weights


@dataclass
class IGDResult:
    """Outcome of in-database IGD training."""

    weights: np.ndarray
    epochs: int
    loss_history: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


def train_igd(
    table: Table,
    feature_columns: Sequence[str],
    label_column: str,
    loss: Loss,
    epochs: int = 10,
    learning_rate: float = 0.1,
    decay: float = 0.5,
    l2: float = 0.0,
    shuffle: str = "once",
    partitions: int = 1,
    seed: int | None = 0,
    parallel: ParallelContext | None = None,
) -> IGDResult:
    """Train a GLM over a table with epoch-per-aggregation IGD.

    Args:
        shuffle: ``"none"`` (physical row order — worst case on clustered
            data), ``"once"`` (shuffle before epoch 1 and keep that
            order), or ``"each"`` (reshuffle every epoch).
        decay: per-epoch step decay, lr_t = lr / (1 + decay * t).
        partitions: simulated parallel workers (merged by averaging).
        parallel: a :class:`ParallelContext` computes partition states
            concurrently on its pool (identical result to the serial path).
    """
    if shuffle not in SHUFFLE_POLICIES:
        raise ModelError(
            f"shuffle must be one of {SHUFFLE_POLICIES}, got {shuffle!r}"
        )
    if not feature_columns:
        raise ModelError("need at least one feature column")

    intercept_col = _fresh_name(table, "intercept")
    work = table.with_column(intercept_col, np.ones(table.num_rows))
    feature_columns = [intercept_col, *feature_columns]
    columns = [*feature_columns, label_column]
    dim = len(feature_columns)

    data = work.to_matrix(columns)
    X_full, y_full = data[:, :-1], data[:, -1]
    loss_of = lambda w: loss.value(X_full, y_full, w) + (
        0.5 * l2 * float(w @ w) if l2 > 0 else 0.0
    )

    rng = np.random.default_rng(seed)
    n = work.num_rows
    order = rng.permutation(n) if shuffle in ("once", "each") else None

    weights = np.zeros(dim)
    history = [loss_of(weights)]
    for epoch in range(epochs):
        if shuffle == "each" and epoch > 0:
            order = rng.permutation(n)
        lr = learning_rate / (1.0 + decay * epoch)
        uda = IGDTransition(loss, dim, lr, l2, initial=weights)
        weights = run_uda(
            work,
            uda,
            columns,
            partitions=partitions,
            row_order=order,
            parallel=parallel,
        )
        history.append(loss_of(weights))
    return IGDResult(weights=weights, epochs=epochs, loss_history=history)


class GradientUDA(BlockSumsUDA[np.ndarray]):
    """One batch-gradient pass: the mean of the loss's per-tuple
    gradients at fixed weights ``w`` (last selected column = label)."""

    def __init__(self, loss: Loss, w: np.ndarray):
        self.loss = loss
        self.w = w

    def block_parts(self, block):
        X, y = block[:, :-1], block[:, -1]
        return (self.loss.gradient_sum(X, y, self.w), len(y))

    def finalize(self, state) -> np.ndarray:
        grad, count = super().finalize(state)
        return grad / count


def train_bgd(
    table: Table,
    feature_columns: Sequence[str],
    label_column: str,
    loss: Loss,
    iterations: int = 50,
    learning_rate: float = 0.5,
    l2: float = 0.0,
    partitions: int = 1,
    parallel: ParallelContext | None = None,
) -> IGDResult:
    """Batch gradient descent: one aggregation pass per iteration.

    The aggregate accumulates the full-data gradient (transition adds
    a block's contributions, merge adds partials) and the driver applies
    one step between passes — the MADlib convex-optimization pattern.
    """
    if not feature_columns:
        raise ModelError("need at least one feature column")
    name = _fresh_name(table, "intercept")
    work = table.with_column(name, np.ones(table.num_rows))
    feature_columns = [name, *feature_columns]
    columns = [*feature_columns, label_column]
    dim = len(feature_columns)

    data = work.to_matrix(columns)
    X_full, y_full = data[:, :-1], data[:, -1]

    value, gradient = l2_penalized(
        partial(loss.value, X_full, y_full),
        lambda w: run_uda(
            work, GradientUDA(loss, w), columns, partitions, parallel=parallel
        ),
        l2,
    )
    run = descend(
        value, gradient, np.zeros(dim), learning_rate, iterations,
        tol=0.0, line_search=False,
    )
    return IGDResult(
        weights=run.weights, epochs=run.iterations, loss_history=run.loss_history
    )


def _fresh_name(table: Table, base: str) -> str:
    name = base
    suffix = 0
    while name in table.schema:
        suffix += 1
        name = f"{base}_{suffix}"
    return name
