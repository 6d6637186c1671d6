"""Linear support vector machine trained with the Pegasos subgradient method."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Classifier, LinearModel, as_pm_one, check_X_y


class LinearSVM(LinearModel, Classifier):
    """Soft-margin linear SVM (hinge loss + L2) via Pegasos SGD.

    The regularization parameter follows the Pegasos convention:
    minimize (l2/2)||w||^2 + (1/n) sum max(0, 1 - y x.w).
    """

    def __init__(
        self,
        l2: float = 0.01,
        epochs: int = 50,
        fit_intercept: bool = True,
        seed: int | None = 0,
    ):
        self.l2 = l2
        self.epochs = epochs
        self.fit_intercept = fit_intercept
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "LinearSVM":
        X, y_raw = check_X_y(X, y)
        if self.l2 <= 0:
            raise ModelError("l2 must be positive for Pegasos")
        y_pm, self.classes_ = as_pm_one(y_raw)
        X = self._design(X)
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        w = np.zeros(d)
        t = 0
        for _ in range(self.epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (self.l2 * t)
                margin = y_pm[i] * float(X[i] @ w)
                w *= 1.0 - eta * self.l2
                if margin < 1.0:
                    w += eta * y_pm[i] * X[i]
        self._unpack(w)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        margins = self.decision_function(X)
        return np.where(margins >= 0, self.classes_[1], self.classes_[0])
