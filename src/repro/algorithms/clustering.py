"""K-means authored in the declarative DSL.

The distance computation — the dominant cost of Lloyd's algorithm — is
one compiled DSL program using the expansion
``D = Q - 2 X C' + t(rowsums(C^2))``; the tiny argmin and centroid
update run in the driver. ``Q = rowsums(X^2)`` does not depend on the
centres, so it is its own plan, run once per fit (and again only after
an adaptive switch of ``X``'s representation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler import compile_expr
from ..compiler import feedback as _feedback
from ..errors import ModelError
from ..lang import matrix, rowsums
from ..ml.base import require_finite
from ..ml.kmeans import cluster_sums, lloyd
from ..operand import is_representation
from ..resilience.retry import RetryPolicy
from .glm import AdaptivePlan


@dataclass
class KMeansResult:
    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    inertia_history: list[float] = field(default_factory=list)
    flops_executed: int = 0
    #: adaptive re-optimization: representation switches adopted mid-run
    replans: int = 0
    #: plan decisions adopted for the design matrix
    plan_history: list[str] = field(default_factory=list)


def _gather_rows(X, rows: np.ndarray) -> np.ndarray:
    """Copies of rows; from a representation via one-hot t(X) %*% E."""
    if isinstance(X, np.ndarray):
        return X[rows].copy()
    picker = np.zeros((X.shape[0], len(rows)))
    picker[rows, np.arange(len(rows))] = 1.0
    return np.asarray(X.rmatmat(picker), dtype=np.float64).T


def kmeans_dsl(
    X: np.ndarray,
    n_clusters: int,
    max_iter: int = 100,
    tol: float = 1e-7,
    seed: int | None = 0,
    retry: RetryPolicy | None = None,
    adaptive: "bool | _feedback.FeedbackStore | None" = None,
) -> KMeansResult:
    """Lloyd's algorithm with compiled distance evaluation.

    ``X`` may be dense or any storage representation; the rep path
    gathers rows and centroid sums through ``rmatmat`` with one-hot
    indicators so the data never materializes.

    The loop is :func:`~repro.ml.kmeans.lloyd`: with a ``retry`` policy
    steps are retried at site ``"clustering.kmeans_dsl.step"``.

    ``adaptive`` re-plans ``X``'s representation against the feedback
    store every iteration (see
    :func:`~repro.algorithms.glm.logreg_gd` — same contract): exact
    conversions, decisions recorded in ``result.plan_history``.
    """
    if not is_representation(X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError(f"X must be 2-D, got shape {X.shape}")
        require_finite("kmeans_dsl", X=X)
    n, d = X.shape
    if not 1 <= n_clusters <= n:
        raise ModelError(f"n_clusters must be in [1, {n}], got {n_clusters}")

    Xm = matrix("X", (n, d))
    Cm = matrix("C", (n_clusters, d))
    Qm = matrix("Q", (n, 1))
    norms_plan = compile_expr(rowsums(Xm**2))
    # Squared distances over Q = rowsums(X^2), which no assign can change.
    dist_plan = compile_expr(Qm - 2.0 * (Xm @ Cm.T) + rowsums(Cm**2).T)

    runner = AdaptivePlan(
        dist_plan, X, {"C": np.zeros((n_clusters, d)), "Q": np.zeros((n, 1))},
        adaptive, interval=1,
    )
    norms = {}  # Q, and the form of X it was computed on

    def assign(centers: np.ndarray):
        if norms.get("of") is not runner.operands["X"]:
            norms.update(of=runner.operands["X"], Q=runner.execute(norms_plan))
        D = runner.execute(C=centers, Q=norms["Q"])
        labels = np.argmin(D, axis=1)
        return labels, float(np.maximum(D[np.arange(n), labels], 0.0).sum())

    with _feedback.feedback_scope(runner.store):
        runner(0)
        rng = np.random.default_rng(seed)
        seed_rows = rng.choice(n, size=n_clusters, replace=False)
        run = lloyd(
            assign,
            lambda labels: cluster_sums(runner.operands["X"], labels, n_clusters),
            _gather_rows(runner.operands["X"], seed_rows),
            max_iter,
            tol,
            retry=retry,
            site="clustering.kmeans_dsl.step",
            between=runner,
            tally=runner.tally,
        )
    return KMeansResult(
        *run,
        flops_executed=runner.tally["flops"],
        replans=runner.replans,
        plan_history=runner.plan_history,
    )
