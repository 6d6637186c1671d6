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
        return self.on_margins(y, X @ w)

    def on_margins(self, y, z):
        """The loss at a linear predictor ``z = X @ w`` already in hand."""
        return float(np.mean(softplus(-(y * z))))

    def gradient_sum(self, X, y, w):
        margins = y * (X @ w)
        coeff = -y * _sigmoid(-margins)
        return X.T @ coeff

    def pointwise_gradient(self, x, y, w):
        # _sigmoid's two cases and np.exp on a scalar: same bytes, no
        # 0-d array round trip per tuple
        z = -(y * float(x @ w))
        if z >= 0:
            link = 1.0 / (1.0 + np.exp(-z))
        else:
            ez = np.exp(z)
            link = ez / (1.0 + ez)
        return -y * link * x


def softplus(m: np.ndarray) -> np.ndarray:
    """log(1 + exp(m)) as log1p(exp(-|m|)) + max(m, 0): stable for both
    signs of m, within 2 ULP of ``np.logaddexp(0.0, m)`` and on SIMD
    ufuncs where that one is a scalar libm loop. The buffer is allocated
    explicitly so a 0-d input stays an array through the ``out=`` calls."""
    out = np.empty_like(m, dtype=np.float64)
    np.abs(m, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(m, 0.0)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid, branch-free: with
    e = exp(-|z|) it is 1 / (1 + e) for z >= 0 and e / (1 + e) below, so
    every element sees the exp argument and the divide of the masked
    two-branch form and keeps its bits. ``minimum(z, -z)`` is the -|z|
    that keeps a NaN's sign and payload, as ``exp(z)`` did."""
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Public stable sigmoid (vectorized)."""
    return _sigmoid(np.asarray(z, dtype=np.float64))
