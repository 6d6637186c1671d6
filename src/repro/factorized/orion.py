"""Factorized GLM training over normalized data (Orion).

The estimators here accept a :class:`~repro.factorized.normalized.NormalizedMatrix`
and train *without ever materializing the join*: linear regression via the
factorized Gram matrix, logistic regression via factorized
matvec/rmatvec inside gradient descent. They expose the same fitted
attributes as their dense counterparts in :mod:`repro.ml`, so results are
directly comparable (experiment E1).
"""

from __future__ import annotations

import numpy as np

from ..errors import FactorizationError
from ..ml.base import LinearRegressor, LogisticClassifier, as_pm_one
from ..ml.linreg import Moments
from ..ml.losses import LogisticLoss
from ..ml.optim import gradient_descent
from .normalized import NormalizedMatrix


class FactorizedLinearRegression(LinearRegressor):
    """Least squares over a normalized matrix via the factorized Gram.

    Solves (X'X + l2 I) w = X'y where X'X comes from
    :meth:`NormalizedMatrix.gram` and X'y from
    :meth:`NormalizedMatrix.rmatvec` — join-free normal equations.
    """

    fit_intercept = False

    def __init__(self, l2: float = 0.0):
        self.l2 = l2

    def fit(self, X: NormalizedMatrix, y: np.ndarray) -> "FactorizedLinearRegression":
        _check_normalized(X, y)
        y = np.asarray(y, dtype=np.float64)
        self._unpack(Moments.of(X, y).solve(self.l2))
        return self


class FactorizedLogisticRegression(LogisticClassifier):
    """Logistic regression trained by factorized gradient descent.

    The dense learner's own loop (:func:`~repro.ml.optim.gradient_descent`
    over :class:`~repro.ml.losses.LogisticLoss`) run on the normalized
    matrix: its ``X @ w`` is :meth:`NormalizedMatrix.matvec` and its
    ``X.T @ u`` is :meth:`NormalizedMatrix.rmatvec` — the Orion pattern:
    per-iteration cost scales with |S| + |R|, not |join|.
    """

    fit_intercept = False

    def __init__(
        self,
        l2: float = 0.0,
        learning_rate: float = 1.0,
        max_iter: int = 200,
        tol: float = 1e-7,
    ):
        self.l2 = l2
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X: NormalizedMatrix, y: np.ndarray) -> "FactorizedLogisticRegression":
        _check_normalized(X, y)
        y_pm, self.classes_ = as_pm_one(np.asarray(y))
        run = gradient_descent(
            LogisticLoss(),
            X,
            y_pm,
            learning_rate=self.learning_rate,
            l2=self.l2,
            max_iter=self.max_iter,
            tol=self.tol,
            warn_on_cap=False,
        )
        self._unpack(run.weights)
        self.n_iter_ = run.iterations
        self.loss_history_ = run.loss_history
        return self


def _check_normalized(X: NormalizedMatrix, y: np.ndarray) -> None:
    if not isinstance(X, NormalizedMatrix):
        raise FactorizationError(
            f"expected a NormalizedMatrix, got {type(X).__name__}"
        )
    y = np.asarray(y)
    if y.ndim != 1 or len(y) != X.n_rows:
        raise FactorizationError(
            f"y must be 1-D with {X.n_rows} entries, got shape {y.shape}"
        )
