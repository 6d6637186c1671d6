"""Row partitioning for data-parallel training.

How rows are assigned to workers matters: contiguous splits of sorted
data give each worker a biased shard (the distributed analogue of
Bismarck's unshuffled IGD pathology), so rows are dealt out by a seeded
random permutation, which keeps shards exchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError


@dataclass
class Partition:
    """One worker's shard."""

    worker_id: int
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def partition_rows(
    n_rows: int,
    num_workers: int,
    seed: int | None = 0,
) -> list[Partition]:
    """Assign row indices to workers by a seeded random permutation.

    Every row lands on exactly one worker; shard sizes differ by at most
    one row.
    """
    if num_workers < 1:
        raise ReproError("num_workers must be >= 1")
    if n_rows < num_workers:
        raise ReproError(
            f"need at least one row per worker: {n_rows} rows, "
            f"{num_workers} workers"
        )
    order = np.random.default_rng(seed).permutation(n_rows)
    chunks = np.array_split(order, num_workers)
    return [Partition(w, np.sort(chunk)) for w, chunk in enumerate(chunks)]
