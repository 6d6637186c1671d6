"""Warm-started regularization paths.

When sweeping a hyperparameter that changes the optimum *smoothly*
(e.g. the L2 strength), the solution for one value is an excellent
starting point for the next. Warm starting turns a path of k cold
optimizations into one cold plus k-1 short refinements — a staple
computation-sharing optimization in model-selection management
(experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import SelectionError
from ..ml.logreg import LogisticRegression


@dataclass
class PathPoint:
    """One lambda on the path."""

    l2: float
    coef: np.ndarray
    intercept: float
    iterations: int
    train_score: float


@dataclass
class PathResult:
    """A fitted regularization path with iteration accounting."""

    points: list[PathPoint] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return sum(p.iterations for p in self.points)


def fit_logistic_path(
    X: np.ndarray,
    y: np.ndarray,
    lambdas: Sequence[float],
    warm_start: bool = True,
    tol: float = 1e-7,
) -> PathResult:
    """Fit a logistic-regression L2 path, warm or cold.

    Lambdas are visited from largest to smallest (the heavily regularized
    optimum is closest to zero, so it is the cheapest anchor), matching
    standard path-following practice.
    """
    lambdas = sorted(set(float(l) for l in lambdas), reverse=True)
    if not lambdas:
        raise SelectionError("need at least one lambda")
    if any(l < 0 for l in lambdas):
        raise SelectionError("lambdas must be non-negative")

    model = LogisticRegression(max_iter=500, tol=tol, warm_start=warm_start)
    result = PathResult()
    for l2 in lambdas:
        if not warm_start:
            model = model.clone()  # cold: a fresh, unfitted estimator
        model.set_params(l2=l2)
        model.fit(X, y)
        result.points.append(
            PathPoint(
                l2=l2,
                coef=model.coef_.copy(),
                intercept=model.intercept_,
                iterations=model.optim_result_.iterations,
                train_score=model.score(X, y),
            )
        )
    return result
