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
from ..ml.losses import sigmoid
from ..ml.optim import descend
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

    Each iteration computes margins with :meth:`NormalizedMatrix.matvec`
    and the gradient with :meth:`NormalizedMatrix.rmatvec` — the Orion
    pattern: per-iteration cost scales with |S| + |R|, not |join|.
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
        n = X.n_rows

        def gradient(w: np.ndarray) -> np.ndarray:
            margins = y_pm * X.matvec(w)
            coeff = -y_pm * sigmoid(-margins)
            return X.rmatvec(coeff) / n + self.l2 * w

        run = descend(
            lambda w: self._loss(X, y_pm, w),
            gradient,
            np.zeros(X.shape[1]),
            self.learning_rate,
            self.max_iter,
            self.tol,
        )
        self._unpack(run.weights)
        self.n_iter_ = run.iterations
        self.loss_history_ = run.loss_history
        return self

    def _loss(self, X: NormalizedMatrix, y_pm: np.ndarray, w: np.ndarray) -> float:
        margins = y_pm * X.matvec(w)
        value = float(np.mean(np.logaddexp(0.0, -margins)))
        if self.l2 > 0:
            value += 0.5 * self.l2 * float(w @ w)
        return value


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
