"""A simulated data-parallel cluster with communication accounting.

Workers hold disjoint row shards and answer gradient/loss requests; the
cluster driver implements bulk-synchronous rounds (broadcast weights,
gather partial gradients, average). The simulation's primary purpose is
to measure the *communication volume* and *convergence per round* that
distinguish distributed strategies, which are scheduling-independent
quantities — but workers can optionally execute their local compute
concurrently on a context's worker pool (``parallel=ctx``), while the
communication ledger and the reduced results stay deterministic:
partials are always combined in worker order.

Failure semantics mirror lineage-based recovery (MapReduce re-execution,
Spark lineage, SystemML plan recompute): the cluster keeps the immutable
shard assignment, so when a worker dies (``kill_worker``) or its RPC
faults (chaos at site ``"cluster.worker"``), the *same deterministic
request over the same shard* is re-executed by a survivor on behalf of
the lost worker. Because partials are still combined in the original
worker order, recovered rounds produce bit-identical reductions, and
the comm ledger — including the recovery traffic — stays deterministic.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import InjectedFault, ReproError, WorkerFailure
from ..ml.losses import Loss
from ..obs import Ledger, get_registry, span
from ..resilience.faults import fault_point, no_chaos
from ..runtime.parallel import ParallelContext, dispatch, resolve_context
from .partition import Partition, partition_rows


def _worker_gradient(
    loss: Loss, w: np.ndarray, worker: "Worker"
) -> tuple[np.ndarray, int]:
    return worker.gradient_sum(loss, w)


def _worker_loss(loss: Loss, w: np.ndarray, worker: "Worker") -> tuple[float, int]:
    return worker.loss_sum(loss, w)

BYTES_PER_FLOAT = 8


class CommStats(Ledger):
    """Cumulative communication ledger (the ``cluster.*`` counters)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(
            "cluster",
            (
                "rounds",
                "messages",
                "bytes_broadcast",  # driver -> workers
                "bytes_gathered",  # workers -> driver
                "worker_failures",  # failed RPCs (dead worker or injected fault)
                "lineage_recoveries",  # shard requests re-executed by a survivor
                "bytes_recovered",  # gather bytes re-sent during recovery
            ),
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_broadcast + self.bytes_gathered


class Worker:
    """One worker: a shard of rows plus local compute."""

    def __init__(self, worker_id: int, X: np.ndarray, y: np.ndarray):
        self.worker_id = worker_id
        self.X = X
        self.y = y
        self.gradient_evaluations = 0
        self.recoveries_executed = 0

    @property
    def num_rows(self) -> int:
        return len(self.y)

    def gradient_sum(self, loss: Loss, w: np.ndarray) -> tuple[np.ndarray, int]:
        """Sum (not mean) of example gradients, plus the example count."""
        self.gradient_evaluations += 1
        return loss.gradient_sum(self.X, self.y, w), self.num_rows

    def loss_sum(self, loss: Loss, w: np.ndarray) -> tuple[float, int]:
        return loss.value(self.X, self.y, w) * self.num_rows, self.num_rows

    def minibatch_gradient(
        self, loss: Loss, w: np.ndarray, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Mean gradient on a random local mini-batch."""
        self.gradient_evaluations += 1
        take = min(batch_size, self.num_rows)
        idx = rng.choice(self.num_rows, size=take, replace=False)
        return loss.gradient(self.X[idx], self.y[idx], w)


class SimulatedCluster:
    """Workers plus a BSP driver."""

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        num_workers: int,
        seed: int | None = 0,
        parallel: ParallelContext | None = None,
    ):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y):
            raise ReproError(f"X has {len(X)} rows but y has {len(y)}")
        self.partitions: list[Partition] = partition_rows(
            len(X), num_workers, seed
        )
        self.workers = [
            Worker(p.worker_id, X[p.indices], y[p.indices])
            for p in self.partitions
        ]
        self.dim = X.shape[1]
        self.n_rows = len(X)
        self.comm = CommStats()
        self.dead: set[int] = set()
        self._parallel_ctx = resolve_context(parallel)

    # ------------------------------------------------------------------
    # failure semantics
    def kill_worker(self, worker_id: int) -> None:
        """Mark a worker as permanently down.

        Its shard stays assigned (lineage): every subsequent request
        for it is recomputed by a survivor.
        """
        if not any(w.worker_id == worker_id for w in self.workers):
            raise ReproError(f"no worker with id {worker_id}")
        self.dead.add(worker_id)
        get_registry().inc("cluster.workers_killed")

    def _attempt_request(self, fn, worker: "Worker") -> tuple[str, object]:
        """One RPC to one worker, returning a status-tagged result.

        Failures (dead worker, injected fault at ``cluster.worker``) are
        returned as a sentinel rather than raised, so one lost worker
        never aborts the whole gather — the driver recovers it instead.
        """
        try:
            if worker.worker_id in self.dead:
                raise WorkerFailure(f"worker {worker.worker_id} is down")
            fault_point("cluster.worker", key=worker.worker_id)
            return "ok", fn(worker)
        except (WorkerFailure, InjectedFault) as exc:
            return "failed", exc

    def _recover_partial(self, fn, worker: "Worker", cause: BaseException):
        """Lineage recovery: a survivor re-executes the lost request.

        The recomputation runs over the *same shard* with the *same
        deterministic function*, so the recovered partial is
        bit-identical to what the lost worker would have produced, and
        combining in worker order keeps the reduction exact.
        """
        survivor = next(
            (w for w in self.workers if w.worker_id not in self.dead), None
        )
        if survivor is None:
            raise WorkerFailure(
                "no surviving worker to recover shard "
                f"{worker.worker_id}"
            ) from cause
        survivor.recoveries_executed += 1
        # Recovery traffic: re-send the request, re-gather one vector.
        vector_bytes = self.dim * BYTES_PER_FLOAT
        self.comm.inc("messages", 2)
        self.comm.inc("bytes_broadcast", vector_bytes)
        self.comm.inc("bytes_gathered", vector_bytes)
        self.comm.inc("bytes_recovered", vector_bytes)
        self.comm.inc("lineage_recoveries")
        with span(
            "cluster.recover",
            worker=worker.worker_id,
            survivor=survivor.worker_id,
        ):
            # The recompute path is off the failed RPC path — chaos is
            # masked so recovery terminates even at fault rate 1.0.
            with no_chaos():
                return fn(worker)

    def _worker_results(self, fn, site: str) -> list:
        """Run one request per worker, optionally concurrently.

        Results come back in worker order either way, so downstream
        reductions are deterministic. Failed workers are recovered
        lineage-style by :meth:`_recover_partial` before returning.
        """
        wrapped = dispatch(
            self._parallel_ctx,
            partial(self._attempt_request, fn),
            self.workers,
            cost_hint=2.0 * self.n_rows * self.dim,
            site=site,
        )
        results = []
        for worker, (status, payload) in zip(self.workers, wrapped):
            if status == "ok":
                results.append(payload)
                continue
            self.comm.inc("worker_failures")
            results.append(self._recover_partial(fn, worker, payload))
        return results

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def _account_round(self) -> None:
        """One BSP round: broadcast w down, gather one vector per worker."""
        round_bytes = self.dim * BYTES_PER_FLOAT * self.num_workers
        self.comm.inc("rounds")
        self.comm.inc("messages", 2 * self.num_workers)
        self.comm.inc("bytes_broadcast", round_bytes)
        self.comm.inc("bytes_gathered", round_bytes)

    def global_gradient(self, loss: Loss, w: np.ndarray) -> np.ndarray:
        """Exact full-data mean gradient via one BSP round."""
        with span("cluster.gradient", workers=self.num_workers, dim=self.dim):
            self._account_round()
            total = np.zeros(self.dim)
            count = 0
            results = self._worker_results(
                partial(_worker_gradient, loss, w), site="cluster.gradient"
            )
            for grad, n in results:
                total += grad
                count += n
            return total / count

    def global_loss(self, loss: Loss, w: np.ndarray) -> float:
        with span("cluster.loss", workers=self.num_workers, dim=self.dim):
            self._account_round()
            total = 0.0
            count = 0
            results = self._worker_results(
                partial(_worker_loss, loss, w), site="cluster.loss"
            )
            for value, n in results:
                total += value
                count += n
            return total / count
