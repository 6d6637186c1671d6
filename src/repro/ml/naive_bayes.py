"""Naive Bayes classifiers.

Gaussian NB for continuous features and categorical NB for discrete
features. Categorical NB is the model the in-database layer trains with
pure GROUP BY aggregation (see :mod:`repro.indb.naive_bayes_sql`), so its
parameter layout mirrors what those aggregates produce.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Classifier, check_X, check_X_y


class _NaiveBayes(Classifier):
    """The predicting half both models share: a subclass's ``fit`` sets
    ``classes_`` and ``_joint_log_likelihood(X)`` gives the (n, k)
    unnormalized log posteriors."""

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


class GaussianNB(_NaiveBayes):
    """Gaussian Naive Bayes with per-class diagonal covariance."""

    def __init__(self, var_smoothing: float = 1e-9):
        self.var_smoothing = var_smoothing

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "GaussianNB":
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        n, d = X.shape
        k = len(self.classes_)
        self.theta_ = np.zeros((k, d))
        self.var_ = np.zeros((k, d))
        self.class_prior_ = np.zeros(k)
        for i, c in enumerate(self.classes_):
            members = X[y == c]
            self.class_prior_[i] = len(members) / n
            self.theta_[i] = members.mean(axis=0)
            self.var_[i] = members.var(axis=0)
        self.var_ += self.var_smoothing * float(X.var(axis=0).max() or 1.0)
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X)
        out = np.zeros((len(X), len(self.classes_)))
        for i in range(len(self.classes_)):
            log_det = np.sum(np.log(2.0 * np.pi * self.var_[i]))
            sq = ((X - self.theta_[i]) ** 2) / self.var_[i]
            out[:, i] = np.log(self.class_prior_[i]) - 0.5 * (
                log_det + sq.sum(axis=1)
            )
        return out


class CategoricalNB(_NaiveBayes):
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
