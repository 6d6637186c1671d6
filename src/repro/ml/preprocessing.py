"""Feature preprocessing: scaling, encoding, discretization, splitting.

These transformers implement the feature-transformation catalogue the
tutorial's lifecycle section covers (the `transform` primitives of
SystemML / MADlib): standardization, min-max scaling, one-hot (dummy)
coding, and equi-width binning. All follow the fit/transform protocol.
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


class MinMaxScaler(Estimator):
    """Scale features to the [0, 1] range."""

    def __init__(self):
        pass

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "MinMaxScaler":
        X = check_X(X)
        self.min_ = X.min(axis=0)
        span = X.max(axis=0) - self.min_
        self.span_ = np.where(span > 0, span, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return (check_X(X) - self.min_) / self.span_

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class OneHotEncoder(Estimator):
    """Dummy-code each categorical column into indicator columns.

    Input is an (n, k) array of arbitrary category values (strings or
    ints); output is a dense float (n, sum of cardinalities) matrix.
    Unknown categories at transform time raise unless ``ignore_unknown``.
    """

    def __init__(self, ignore_unknown: bool = False):
        self.ignore_unknown = ignore_unknown

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "OneHotEncoder":
        X = _as_2d_object(X)
        self.categories_ = [
            np.array(sorted(set(X[:, j].tolist())), dtype=object)
            for j in range(X.shape[1])
        ]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = _as_2d_object(X)
        if X.shape[1] != len(self.categories_):
            raise ModelError(
                f"expected {len(self.categories_)} columns, got {X.shape[1]}"
            )
        blocks = []
        for j, cats in enumerate(self.categories_):
            index = {c: i for i, c in enumerate(cats)}
            block = np.zeros((len(X), len(cats)))
            for row, value in enumerate(X[:, j]):
                pos = index.get(value)
                if pos is None:
                    if not self.ignore_unknown:
                        raise ModelError(
                            f"unknown category {value!r} in column {j}"
                        )
                    continue
                block[row, pos] = 1.0
            blocks.append(block)
        return np.hstack(blocks) if blocks else np.empty((len(X), 0))

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class KBinsDiscretizer(Estimator):
    """Equi-width binning of numeric features into ordinal codes."""

    def __init__(self, n_bins: int = 5):
        self.n_bins = n_bins

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "KBinsDiscretizer":
        if self.n_bins < 2:
            raise ModelError("n_bins must be >= 2")
        X = check_X(X)
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        # Each column's edges exclude the outer bounds: k-1 interior cuts.
        self.edges_ = [
            np.linspace(lo[j], hi[j], self.n_bins + 1)[1:-1]
            for j in range(X.shape[1])
        ]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_X(X)
        out = np.empty_like(X)
        for j, edges in enumerate(self.edges_):
            out[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return out

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class FeatureHasher(Estimator):
    """The hashing trick: categorical values to a fixed-width space.

    High-cardinality categorical features (user ids, URLs) make one-hot
    widths unbounded; hashing maps each (column, value) pair to one of
    ``n_features`` buckets with a sign hash, keeping the width fixed and
    requiring no fitted vocabulary — the standard large-scale-ML
    encoding. Stateless: fit is a no-op, transforms never see unknowns.
    """

    def __init__(self, n_features: int = 64, signed: bool = True):
        self.n_features = n_features
        self.signed = signed

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "FeatureHasher":
        if self.n_features < 1:
            raise ModelError("n_features must be >= 1")
        self.fitted_ = True  # stateless, but keep the protocol
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = _as_2d_object(X)
        out = np.zeros((len(X), self.n_features))
        for row in range(len(X)):
            for j in range(X.shape[1]):
                token = f"{j}={X[row, j]}"
                code = _stable_hash(token)
                bucket = code % self.n_features
                sign = 1.0 if not self.signed or (code >> 31) & 1 == 0 else -1.0
                out[row, bucket] += sign
        return out

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        return self.fit(X, y).transform(X)


def _stable_hash(token: str) -> int:
    """Deterministic 64-bit FNV-1a (process-independent, unlike hash())."""
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def add_intercept(X: np.ndarray) -> np.ndarray:
    """Design matrix with a leading all-ones column."""
    X = check_X(X)
    return np.hstack([np.ones((len(X), 1)), X])


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


def _as_2d_object(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=object)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ModelError(f"categorical input must be 1-D or 2-D, got {X.ndim}-D")
    return X


__all__ = [
    "KBinsDiscretizer",
    "MinMaxScaler",
    "NotFittedError",
    "OneHotEncoder",
    "StandardScaler",
    "add_intercept",
    "train_test_split",
]
