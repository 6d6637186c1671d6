"""Loss functions for generalized linear models.

Each loss exposes ``value`` and ``gradient`` on the full design matrix,
``gradient_sum`` on a block of it (what the in-database batch-gradient
aggregate accumulates) and ``pointwise_gradient`` on a single example
(the in-database incremental-gradient UDA steps one tuple at a time).
Labels for classification losses are in {-1, +1} unless noted.
"""

from __future__ import annotations

import numpy as np


class Loss:
    """Base class for GLM losses: L(w) = (1/n) sum_i l(x_i, y_i; w)."""

    def value(self, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.gradient_sum(X, y, w) / len(y)

    def gradient_sum(
        self, X: np.ndarray, y: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """Sum of the rows' gradient contributions (not averaged)."""
        raise NotImplementedError

    def pointwise_gradient(
        self, x: np.ndarray, y: float, w: np.ndarray
    ) -> np.ndarray:
        """Gradient contribution of a single example (not averaged)."""
        raise NotImplementedError


class SquaredLoss(Loss):
    """Least squares: l = 0.5 * (x.w - y)^2."""

    def value(self, X, y, w):
        r = X @ w - y
        return 0.5 * float(r @ r) / len(y)

    def gradient_sum(self, X, y, w):
        return X.T @ (X @ w - y)

    def pointwise_gradient(self, x, y, w):
        return (float(x @ w) - y) * x


class LogisticLoss(Loss):
    """Logistic regression with labels in {-1, +1}: l = log(1 + exp(-y x.w))."""

    def value(self, X, y, w):
        margins = y * (X @ w)
        # log(1+exp(-m)) computed stably for both signs of m.
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def gradient_sum(self, X, y, w):
        margins = y * (X @ w)
        coeff = -y * _sigmoid(-margins)
        return X.T @ coeff

    def pointwise_gradient(self, x, y, w):
        # _sigmoid's branch and np.exp on a scalar: same bytes, no 0-d
        # array round trip per tuple
        z = -(y * float(x @ w))
        if z >= 0:
            link = 1.0 / (1.0 + np.exp(-z))
        else:
            ez = np.exp(z)
            link = ez / (1.0 + ez)
        return -y * link * x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Public stable sigmoid (vectorized)."""
    return _sigmoid(np.asarray(z, dtype=np.float64))
