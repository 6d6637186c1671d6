"""Lloyd's k-means with k-means++ initialization.

:func:`lloyd` is the one Lloyd loop in the package; :class:`KMeans` and
the DSL, factorized and in-database trainers hand it their closures.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import ModelError
from .base import Estimator, check_X, require_finite
from .optim import iterate


def lloyd(
    assign: Callable[[np.ndarray], tuple[Any, float]],
    accumulate: Callable[[Any], tuple[np.ndarray, np.ndarray]],
    centers: np.ndarray,
    max_iter: int,
    tol: float,
    **loop,
) -> tuple[np.ndarray, Any, float, int, list[float]]:
    """Lloyd's algorithm over a provider's closures.

    ``assign(centers)`` returns ``(assignment, inertia)`` and
    ``accumulate(assignment)`` its per-cluster ``(sums, counts)``; the
    assignment (labels, or an in-DB pass's finished state) is opaque
    here. Each step moves every centre with members to ``sums / counts``
    until none moves by more than ``tol``; one more ``assign`` closes.
    ``loop`` goes to :func:`~repro.ml.optim.iterate`. Returns ``(centers,
    assignment, inertia, iterations, inertia_history)``.
    """

    def step(state):
        current, history = state
        assignment, inertia = assign(current)
        new = move_centers(current, *accumulate(assignment))
        shift = float(np.max(np.linalg.norm(new - current, axis=1)))
        return (new, history + [inertia]), shift <= tol

    (centers, history), it, _ = iterate(step, (centers, []), max_iter, **loop)
    return (centers, *assign(centers), it, history)


def move_centers(
    centers: np.ndarray, sums: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """One Lloyd update: every cluster with members moves to its mean."""
    new = centers.copy()
    nonempty = counts > 0
    new[nonempty] = sums[nonempty] / counts[nonempty, None]
    return new


def cluster_sums(X, labels: np.ndarray, n_clusters: int):
    """Per-cluster coordinate sums and member counts of an assignment; an
    operand that must not be materialized is summed through ``rmatmat``
    of the one-hot membership matrix."""
    if isinstance(X, np.ndarray):
        sums = np.zeros((n_clusters, X.shape[1]))
        for k in range(n_clusters):
            sums[k] = X[labels == k].sum(axis=0)
        return sums, np.bincount(labels, minlength=n_clusters)
    member = np.zeros((X.shape[0], n_clusters))
    member[np.arange(len(labels)), labels] = 1.0
    return np.asarray(X.rmatmat(member), dtype=np.float64).T, member.sum(axis=0)


class KMeans(Estimator):
    """K-means clustering.

    Args:
        n_clusters: number of centroids.
        init: ``"kmeans++"`` or ``"random"``.
        n_init: restarts; the run with the lowest inertia wins.
        max_iter / tol: Lloyd-iteration controls (tol is on centroid shift).
    """

    def __init__(
        self,
        n_clusters: int = 8,
        init: str = "kmeans++",
        n_init: int = 3,
        max_iter: int = 300,
        tol: float = 1e-6,
        seed: int | None = 0,
    ):
        self.n_clusters = n_clusters
        self.init = init
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "KMeans":
        X = check_X(X)
        require_finite("KMeans.fit", X=X)
        if self.n_clusters < 1:
            raise ModelError("n_clusters must be >= 1")
        if len(X) < self.n_clusters:
            raise ModelError(
                f"need at least n_clusters={self.n_clusters} points, got {len(X)}"
            )
        rng = np.random.default_rng(self.seed)
        x_sq = np.sum(X * X, axis=1)  # once per fit: no centre moves it
        best_inertia = np.inf
        for _ in range(max(1, self.n_init)):
            centers, labels, inertia, iters = self._run(X, x_sq, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                self.cluster_centers_ = centers
                self.labels_ = labels
                self.inertia_ = inertia
                self.n_iter_ = iters
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centroid assignment per row."""
        self._check_fitted()
        X = check_X(X)
        return nearest_center(X, self.cluster_centers_)[0]

    # ------------------------------------------------------------------
    def _run(self, X, x_sq, rng) -> tuple[np.ndarray, np.ndarray, float, int]:
        def assign(centers):
            labels, dists = nearest_center(X, centers, x_sq)
            return (labels, dists), float(dists.sum())

        def accumulate(assignment):
            labels, dists = assignment
            sums, counts = cluster_sums(X, labels, self.n_clusters)
            for k in np.flatnonzero(counts == 0):
                # Re-seed an empty cluster at the farthest point.
                sums[k], counts[k] = X[int(np.argmax(dists))], 1
            return sums, counts

        centers, (labels, _), inertia, iters, _ = lloyd(
            assign, accumulate, self._init_centers(X, x_sq, rng),
            self.max_iter, self.tol,
        )
        return centers, labels, inertia, iters

    def _init_centers(self, X: np.ndarray, x_sq, rng) -> np.ndarray:
        if self.init == "random":
            idx = rng.choice(len(X), size=self.n_clusters, replace=False)
            return X[idx].copy()
        if self.init != "kmeans++":
            raise ModelError(f"unknown init {self.init!r}")
        centers = [X[rng.integers(len(X))]]
        for _ in range(1, self.n_clusters):
            d2 = _sq_distances(X, np.array(centers), x_sq).min(axis=1)
            total = d2.sum()
            if total <= 0:
                # All remaining points coincide with chosen centers.
                centers.append(X[rng.integers(len(X))])
                continue
            probs = d2 / total
            centers.append(X[rng.choice(len(X), p=probs)])
        return np.array(centers)


def _sq_distances(X: np.ndarray, centers: np.ndarray, x_sq=None) -> np.ndarray:
    """Squared Euclidean distances, shape (n, k).

    Computed via the expansion ||x||^2 - 2 x.c + ||c||^2, which is the
    vectorized form declarative ML compilers generate for k-means;
    ``x_sq``, the rows' ``np.sum`` squared norms, may be passed in.
    """
    x_sq = np.sum(X * X, axis=1) if x_sq is None else x_sq
    c2 = np.sum(centers * centers, axis=1)
    d2 = x_sq[:, None] - 2.0 * (X @ centers.T) + c2
    return np.maximum(d2, 0.0)


def nearest_center(
    X: np.ndarray, centers: np.ndarray, x_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centre labels and squared distances, ``np.sum`` form (not
    merged with :func:`nearest_center_einsum`: the two round differently);
    a Lloyd loop passes ``x_sq``, ``np.sum(X * X, axis=1)``, once per fit."""
    d2 = _sq_distances(X, centers, x_sq)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(X)), labels]


def nearest_center_einsum(
    X, centers: np.ndarray, x_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centre labels and squared distances, ``einsum`` form: the
    factorized trainer (``X`` normalized, ``x_sq`` its squared row norms)
    and the incremental centroid maintainer share it bit for bit."""
    if x_sq is None:
        x_sq = np.einsum("ij,ij->i", X, X)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    d2 = np.maximum(x_sq[:, None] - 2.0 * (X @ centers.T) + c_sq, 0.0)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(labels)), labels]
