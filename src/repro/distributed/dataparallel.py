"""Bulk-synchronous data-parallel GD and model averaging.

The two classic distributed training strategies the tutorial contrasts:

* **BSP gradient descent** — every round aggregates the exact global
  gradient (one broadcast + one gather per round). Statistically
  identical to single-node GD; all cost is communication rounds.
* **One-shot model averaging** — each worker solves on its shard alone
  and models are averaged once. One round of communication total, but
  statistically weaker on non-IID shards — the trade-off experiment
  E15 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import ReproError
from ..ml.losses import Loss
from ..ml.optim import descend, gradient_descent, l2_penalized
from .cluster import BYTES_PER_FLOAT, CommStats, SimulatedCluster


@dataclass
class DistributedResult:
    weights: np.ndarray
    rounds: int
    loss_history: list[float] = field(default_factory=list)
    comm: CommStats = field(default_factory=CommStats)

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


def train_bsp_gd(
    cluster: SimulatedCluster,
    loss: Loss,
    rounds: int = 50,
    learning_rate: float = 0.5,
    l2: float = 0.0,
    tol: float = 0.0,
) -> DistributedResult:
    """Synchronous distributed gradient descent.

    Two communication rounds per iteration (gradient, loss). The loop
    is single-node fixed-step GD: on one worker bit-identical to
    :func:`gradient_descent`, over several shards equal up to the
    reassociated shard sums (~1e-16 per step).
    """
    if rounds < 1:
        raise ReproError("rounds must be >= 1")
    value, gradient = l2_penalized(
        partial(cluster.global_loss, loss),
        partial(cluster.global_gradient, loss),
        l2,
    )
    run = descend(
        value, gradient, np.zeros(cluster.dim), learning_rate, rounds, tol,
        line_search=False,
    )
    return DistributedResult(
        weights=run.weights,
        rounds=cluster.comm.rounds,
        loss_history=run.loss_history,
        comm=cluster.comm,
    )


def train_model_averaging(
    cluster: SimulatedCluster,
    loss: Loss,
    local_iterations: int = 200,
) -> DistributedResult:
    """One-shot parameter mixing: solve locally, average once.

    Communication: a single gather of one model per worker.
    """
    models = []
    weights = []
    for worker in cluster.workers:
        result = gradient_descent(
            loss,
            worker.X,
            worker.y,
            learning_rate=0.5,
            max_iter=local_iterations,
            warn_on_cap=False,
        )
        models.append(result.weights)
        weights.append(worker.num_rows)
    averaged = np.average(np.vstack(models), axis=0, weights=weights)

    comm = cluster.comm
    comm.inc("rounds")
    comm.inc("messages", cluster.num_workers)
    comm.inc(
        "bytes_gathered", cluster.num_workers * cluster.dim * BYTES_PER_FLOAT
    )
    final = cluster.global_loss(loss, averaged)
    return DistributedResult(
        weights=averaged,
        rounds=comm.rounds,
        loss_history=[final],
        comm=comm,
    )
