"""PCA authored in the declarative DSL.

The O(n d^2) covariance computation is a compiled DSL program (centering
fused with the tsmm Gram kernel); the O(d^3) eigendecomposition of the
small d x d covariance runs in the driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler import compile_expr
from ..errors import ModelError
from ..lang import colmeans, matrix
from ..runtime import execute


@dataclass
class PCAResult:
    components: np.ndarray  # (k, d) principal directions
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    mean: np.ndarray
    flops_executed: int


def pca_dsl(X: np.ndarray, n_components: int) -> PCAResult:
    """Principal components via a compiled covariance program."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError(f"X must be 2-D, got shape {X.shape}")
    n, d = X.shape
    if not 1 <= n_components <= min(n, d):
        raise ModelError(
            f"n_components must be in [1, {min(n, d)}], got {n_components}"
        )

    Xm = matrix("X", (n, d))
    centered = Xm - colmeans(Xm)  # row-vector broadcast
    # one plan, two outputs: the column means inside the covariance and
    # the ones handed back are a single shared operator
    plan = compile_expr(
        {"cov": centered.T @ centered / max(n - 1, 1), "mean": colmeans(Xm)}
    )
    out, stats = execute(plan, {"X": X}, collect_stats=True)
    cov, mean_row = out["cov"], out["mean"]

    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    components = eigenvectors[:, order].T[:n_components]
    # Deterministic sign convention (largest coordinate positive).
    for i in range(n_components):
        pivot = np.argmax(np.abs(components[i]))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    total = float(eigenvalues.sum()) or 1.0
    return PCAResult(
        components=components,
        explained_variance=eigenvalues[:n_components],
        explained_variance_ratio=eigenvalues[:n_components] / total,
        mean=mean_row[0],
        flops_executed=stats.flops,
    )
