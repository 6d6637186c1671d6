"""Categorical Naive Bayes.

The model the in-database layer trains with pure GROUP BY aggregation
(see :mod:`repro.indb.naive_bayes_sql`), so its parameter layout mirrors
what those aggregates produce.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Classifier


class CategoricalNB(Classifier):
    """Naive Bayes over categorical features with Laplace smoothing.

    Features are arbitrary hashable values per column. Unknown categories
    at prediction time contribute the smoothed prior probability.
    """

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "CategoricalNB":
        X = np.asarray(X, dtype=object)
        if X.ndim != 2:
            raise ModelError(f"X must be 2-D, got shape {X.shape}")
        y = np.asarray(y)
        if len(X) != len(y):
            raise ModelError(f"X has {len(X)} rows but y has {len(y)}")
        if self.alpha <= 0:
            raise ModelError("alpha must be positive")
        self.classes_ = np.unique(y)
        n, d = X.shape

        self.class_count_ = np.array(
            [np.sum(y == c) for c in self.classes_], dtype=np.float64
        )
        self.class_log_prior_ = np.log(self.class_count_ / n)

        # feature_counts_[j][(class_index, value)] -> count
        self.feature_counts_: list[dict] = [dict() for _ in range(d)]
        self.feature_cardinality_ = np.zeros(d, dtype=np.int64)
        for j in range(d):
            values = X[:, j]
            self.feature_cardinality_[j] = len(set(values.tolist()))
            for i, c in enumerate(self.classes_):
                for v in values[y == c]:
                    key = (i, v)
                    self.feature_counts_[j][key] = (
                        self.feature_counts_[j].get(key, 0) + 1
                    )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self.classes_[np.argmax(self._joint_log_likelihood(X), axis=1)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class posteriors, shape (n, k), columns ordered as ``classes_``."""
        self._check_fitted()
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        p = np.exp(jll)
        return p / p.sum(axis=1, keepdims=True)

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=object)
        if X.ndim != 2 or X.shape[1] != len(self.feature_counts_):
            raise ModelError(
                f"expected (n, {len(self.feature_counts_)}) input, got {X.shape}"
            )
        n = len(X)
        k = len(self.classes_)
        out = np.tile(self.class_log_prior_, (n, 1))
        for j, counts in enumerate(self.feature_counts_):
            card = self.feature_cardinality_[j]
            denom = self.class_count_ + self.alpha * card
            for row in range(n):
                v = X[row, j]
                for i in range(k):
                    num = counts.get((i, v), 0) + self.alpha
                    out[row, i] += np.log(num / denom[i])
        return out
