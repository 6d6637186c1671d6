"""Parameter-server training with bounded staleness.

The asynchronous alternative to BSP: workers pull (possibly stale)
weights, compute mini-batch gradients locally, and push updates the
server applies in arrival order. The simulation models staleness
explicitly — each gradient is computed against the weights as of
``current_version - s`` with s drawn uniformly from [0, max_staleness] —
so experiment E15 can sweep staleness and watch convergence degrade, the
parameter-server trade-off the tutorial discusses.

Fault tolerance mirrors real parameter servers: the training loop
survives dropped pushes and failed pulls (injected at chaos sites
``"paramserver.push"`` / ``"paramserver.pull"``) by simply moving on:
asynchronous SGD is tolerant of lost updates, which is exactly why the
architecture scales. Workers killed at the cluster
level are skipped deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InjectedFault, ReproError, WorkerFailure
from ..ml.losses import Loss
from ..obs import get_registry
from ..resilience.faults import fault_point
from .cluster import BYTES_PER_FLOAT, CommStats, SimulatedCluster

#: rows of a worker's shard behind each pushed gradient
BATCH_SIZE = 32


@dataclass
class ParameterServerResult:
    weights: np.ndarray
    updates_applied: int
    loss_history: list[float] = field(default_factory=list)
    staleness_observed: list[int] = field(default_factory=list)
    comm: CommStats = field(default_factory=CommStats)
    dropped_pushes: int = 0  # pushes lost to injected faults
    failed_pulls: int = 0  # pulls lost to injected faults (step skipped)
    worker_reassignments: int = 0  # steps rerouted off dead workers

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class ParameterServer:
    """Versioned weight store with a bounded history for stale reads.

    Args:
        dim: weight dimensionality.
        history: how many versions are kept for stale pulls.
    """

    def __init__(self, dim: int, history: int = 256):
        self.dim = dim
        self._versions: list[np.ndarray] = [np.zeros(dim)]
        self._history = history

    @property
    def version(self) -> int:
        return len(self._versions) - 1

    @property
    def current(self) -> np.ndarray:
        return self._versions[-1]

    def pull(self, staleness: int = 0) -> tuple[np.ndarray, int]:
        """Weights as of ``version - staleness`` (clamped to history)."""
        fault_point("paramserver.pull", key=self.version)
        staleness = int(min(staleness, self.version, self._history - 1))
        return self._versions[-(staleness + 1)], staleness

    def push(self, delta: np.ndarray) -> None:
        """Apply an additive update, creating a new version."""
        fault_point("paramserver.push", key=self.version)
        new = self._versions[-1] + delta
        self._versions.append(new)
        if len(self._versions) > self._history:
            self._versions.pop(0)


def train_parameter_server(
    cluster: SimulatedCluster,
    loss: Loss,
    total_updates: int = 500,
    learning_rate: float = 0.1,
    decay: float = 0.001,
    max_staleness: int = 0,
    loss_every: int = 50,
    seed: int | None = 0,
) -> ParameterServerResult:
    """Asynchronous SGD through a parameter server.

    ``max_staleness = 0`` reduces to fully-sequential (sequentially
    consistent) SGD; larger values let workers act on increasingly stale
    weights. Dropped pushes and failed pulls from injected faults are
    tolerated — the loop moves on to the next update, which is the
    asynchrony the architecture is built on.
    """
    if total_updates < 1:
        raise ReproError("total_updates must be >= 1")
    if max_staleness < 0:
        raise ReproError("max_staleness must be >= 0")
    rng = np.random.default_rng(seed)
    server = ParameterServer(cluster.dim, history=max(max_staleness + 2, 8))
    result = ParameterServerResult(
        weights=server.current.copy(), updates_applied=0, comm=cluster.comm
    )
    result.loss_history.append(cluster.global_loss(loss, server.current))

    vector_bytes = cluster.dim * BYTES_PER_FLOAT
    registry = get_registry()
    for step in range(1, total_updates + 1):
        pick = int(rng.integers(cluster.num_workers))
        requested = int(rng.integers(0, max_staleness + 1)) if max_staleness else 0
        if cluster.workers[pick].worker_id in cluster.dead:
            # Deterministic reroute: next surviving worker in id order.
            for offset in range(1, cluster.num_workers + 1):
                candidate = (pick + offset) % cluster.num_workers
                if cluster.workers[candidate].worker_id not in cluster.dead:
                    pick = candidate
                    result.worker_reassignments += 1
                    registry.inc("paramserver.worker_reassignments")
                    break
            else:
                raise WorkerFailure("all parameter-server workers are dead")
        worker = cluster.workers[pick]
        try:
            weights, actual = server.pull(requested)
        except InjectedFault:
            result.failed_pulls += 1
            registry.inc("paramserver.failed_pulls")
            cluster.comm.inc("messages")  # the pull that was lost
            continue
        grad = worker.minibatch_gradient(loss, weights, BATCH_SIZE, rng)
        lr = learning_rate / (1.0 + decay * step)
        try:
            server.push(-lr * grad)
            result.updates_applied += 1
        except InjectedFault:
            result.dropped_pushes += 1
            registry.inc("paramserver.dropped_pushes")

        result.staleness_observed.append(actual)
        cluster.comm.inc("messages", 2)  # pull + push
        cluster.comm.inc("bytes_broadcast", vector_bytes)
        cluster.comm.inc("bytes_gathered", vector_bytes)
        if step % loss_every == 0:
            result.loss_history.append(
                cluster.global_loss(loss, server.current)
            )

    result.weights = server.current.copy()
    if (total_updates % loss_every) != 0:
        result.loss_history.append(cluster.global_loss(loss, server.current))
    return result
