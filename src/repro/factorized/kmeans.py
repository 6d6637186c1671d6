"""Factorized k-means over normalized data (a Morpheus application).

Every piece of Lloyd's algorithm reduces to the NormalizedMatrix
kernels, so clustering never materializes the join either:

* distances need ``sq_rowsums(X)`` and ``X @ C.T``  (gathered per block);
* the centroid update is ``X.T @ M / counts`` with M the one-hot
  assignment matrix (grouped scatter-adds per block).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import FactorizationError
from ..ml.kmeans import cluster_sums, lloyd, nearest_center_einsum
from .normalized import NormalizedMatrix


@dataclass
class FactorizedKMeansResult:
    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    inertia_history: list[float] = field(default_factory=list)


def factorized_kmeans(
    X: NormalizedMatrix,
    n_clusters: int,
    max_iter: int = 100,
    tol: float = 1e-7,
    seed: int | None = 0,
) -> FactorizedKMeansResult:
    """Lloyd's algorithm executed entirely on the normalized matrix."""
    if not isinstance(X, NormalizedMatrix):
        raise FactorizationError(
            f"expected a NormalizedMatrix, got {type(X).__name__}"
        )
    n, d = X.shape
    if not 1 <= n_clusters <= n:
        raise FactorizationError(
            f"n_clusters must be in [1, {n}], got {n_clusters}"
        )

    rng = np.random.default_rng(seed)
    # Seed centroids from materialized sample rows (k rows only).
    seed_rows = rng.choice(n, size=n_clusters, replace=False)
    x_sq = X.sq_rowsums()  # constant across iterations

    def assign(centers: np.ndarray):
        labels, d2 = nearest_center_einsum(X, centers, x_sq)
        return labels, float(d2.sum())

    return FactorizedKMeansResult(
        *lloyd(
            assign,
            partial(cluster_sums, X, n_clusters=n_clusters),
            _gather_rows(X, seed_rows),
            max_iter,
            tol,
        )
    )


def _gather_rows(X: NormalizedMatrix, rows: np.ndarray) -> np.ndarray:
    """Materialize just the requested logical rows (for seeding)."""
    parts = []
    if X.S is not None:
        parts.append(X.S[rows])
    for fk, R in zip(X.fks, X.Rs):
        parts.append(R[fk[rows]])
    return np.hstack(parts)
