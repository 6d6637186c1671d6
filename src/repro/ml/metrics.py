"""Evaluation metrics for regression and classification."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ModelError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if len(y_true) == 0:
        raise ModelError("cannot score empty label vectors")
    return y_true, y_pred


# ----------------------------------------------------------------------
# Regression
# ----------------------------------------------------------------------
def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination. 1.0 is perfect; 0.0 matches the mean."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    y_true = y_true.astype(float)
    residual = float(np.sum((y_true - y_pred.astype(float)) ** 2))
    total = float(np.sum((y_true - y_true.mean()) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))
