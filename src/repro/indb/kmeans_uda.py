"""K-means clustering inside the database (MADlib's kmeans pattern).

Each Lloyd iteration is one aggregation pass: the transition function
assigns a block of tuples to their nearest current centroids and accumulates
per-centroid sums and counts; merge adds partial accumulators across
partitions; finalize emits the new centroids. The driver repeats passes
until centroids stabilize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..ml.kmeans import lloyd
from ..storage.table import Table
from .uda import UDA, run_uda


@dataclass
class KMeansState:
    sums: np.ndarray  # (k, d) per-centroid coordinate sums
    counts: np.ndarray  # (k,) per-centroid member counts
    inertia: float = 0.0


class KMeansAssignUDA(UDA[KMeansState, KMeansState]):
    """One assign-and-accumulate pass against fixed current centroids."""

    steps_per_row = False

    def __init__(self, centroids: np.ndarray):
        self.centroids = centroids

    def initialize(self) -> KMeansState:
        k, d = self.centroids.shape
        return KMeansState(sums=np.zeros((k, d)), counts=np.zeros(k))

    def transition_many(
        self, state: KMeansState, block: np.ndarray
    ) -> KMeansState:
        diffs = self.centroids - block[:, None, :]
        d2 = np.einsum("bij,bij->bi", diffs, diffs)
        nearest = np.argmin(d2, axis=1)  # ties go to the lowest index
        # unbuffered adds, one row after another: the row fold's bytes
        np.add.at(state.sums, nearest, block)
        state.counts += np.bincount(nearest, minlength=len(state.counts))
        for value in d2.min(axis=1).tolist():
            state.inertia += value
        return state

    def merge(self, left: KMeansState, right: KMeansState) -> KMeansState:
        return KMeansState(
            sums=left.sums + right.sums,
            counts=left.counts + right.counts,
            inertia=left.inertia + right.inertia,
        )

    def finalize(self, state: KMeansState) -> KMeansState:
        return state


@dataclass
class InDBKMeansResult:
    centroids: np.ndarray
    inertia: float
    iterations: int
    inertia_history: list[float] = field(default_factory=list)


def train_kmeans_indb(
    table: Table,
    feature_columns: Sequence[str],
    n_clusters: int,
    max_iter: int = 50,
    tol: float = 1e-6,
    partitions: int = 1,
    seed: int | None = 0,
) -> InDBKMeansResult:
    """Lloyd's algorithm as repeated aggregation passes over a table."""
    if not feature_columns:
        raise ModelError("need at least one feature column")
    if n_clusters < 1:
        raise ModelError("n_clusters must be >= 1")
    if table.num_rows < n_clusters:
        raise ModelError(
            f"need at least n_clusters={n_clusters} rows, got {table.num_rows}"
        )

    rng = np.random.default_rng(seed)
    data = table.to_matrix(feature_columns)
    centroids = data[
        rng.choice(table.num_rows, size=n_clusters, replace=False)
    ].copy()

    def assign(current: np.ndarray):
        state = run_uda(
            table,
            KMeansAssignUDA(current),
            feature_columns,
            partitions=partitions,
        )
        return state, state.inertia

    centroids, _, inertia, it, history = lloyd(
        assign, lambda state: (state.sums, state.counts), centroids,
        max_iter, tol,
    )
    return InDBKMeansResult(
        centroids=centroids,
        inertia=inertia,
        iterations=it,
        inertia_history=history,
    )
