"""Binary logistic regression by batch gradient descent."""

from __future__ import annotations

import numpy as np

from .base import LogisticClassifier, as_pm_one, check_X_y
from .losses import LogisticLoss
from .optim import gradient_descent


class LogisticRegression(LogisticClassifier):
    """Binary logistic regression.

    Labels may be any two distinct values; internally they map to
    {-1, +1} with ``classes_[1]`` as the positive class. The solver is
    batch gradient descent with backtracking line search.

    Args:
        l2: L2 regularization strength.
        warm_start: if true, reuse ``coef_``/``intercept_`` from a prior
            fit as the starting point (the optimization the tutorial's
            model-selection section highlights for hyperparameter paths).
    """

    def __init__(
        self,
        l2: float = 0.0,
        fit_intercept: bool = True,
        learning_rate: float = 1.0,
        max_iter: int = 200,
        tol: float = 1e-7,
        warm_start: bool = False,
    ):
        self.l2 = l2
        self.fit_intercept = fit_intercept
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.warm_start = warm_start

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "LogisticRegression":
        X, y_raw = check_X_y(X, y)
        y_pm, self.classes_ = as_pm_one(y_raw)
        Xd = self._design(X)
        result = gradient_descent(
            LogisticLoss(),
            Xd,
            y_pm,
            w0=self._initial_weights(Xd.shape[1]),
            l2=self.l2,
            learning_rate=self.learning_rate,
            max_iter=self.max_iter,
            tol=self.tol,
            warn_on_cap=False,
        )
        self.optim_result_ = result
        self._unpack(result.weights)
        return self

    # ------------------------------------------------------------------
    def _initial_weights(self, d: int) -> np.ndarray | None:
        if not (self.warm_start and self.is_fitted and hasattr(self, "coef_")):
            return None
        if len(self.coef_) + int(self.fit_intercept) != d:
            return None  # dimensionality changed; cold start
        if self.fit_intercept:
            return np.concatenate([[self.intercept_], self.coef_])
        return self.coef_.copy()
