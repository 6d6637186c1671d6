"""Feature preprocessing on arrays: standardization and splitting.

Recoding, dummy-coding and binning of table columns are declared in a
:class:`repro.feateng.TransformSpec` and run by
:class:`repro.feateng.TableEncoder`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError, NotFittedError
from .base import Estimator, check_X


class StandardScaler(Estimator):
    """Standardize features to zero mean and unit variance."""

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "StandardScaler":
        X = check_X(X)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            std = X.std(axis=0)
            # Constant columns get scale 1 so they pass through unchanged.
            self.scale_ = np.where(std > 0, std, 1.0)
        else:
            self.scale_ = np.ones(X.shape[1])
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_X(X)
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        return self.fit(X, y).transform(X)


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_fraction: float = 0.25,
    seed: int | None = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random split into (X_train, X_test, y_train, y_test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ModelError("test_fraction must be in (0, 1)")
    X = np.asarray(X)
    y = np.asarray(y)
    if len(X) != len(y):
        raise ModelError(f"X has {len(X)} rows but y has {len(y)}")
    n = len(X)
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ModelError("split would leave an empty training set")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


__all__ = [
    "NotFittedError",
    "StandardScaler",
    "train_test_split",
]
