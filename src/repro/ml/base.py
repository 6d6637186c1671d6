"""Estimator API shared by every model in the library.

Estimators follow the fit/predict convention with introspectable
hyperparameters (``get_params`` / ``set_params``), which is what the
model-selection layer (:mod:`repro.selection`) enumerates over.
"""

from __future__ import annotations

import copy
import functools
import inspect
from typing import Any

import numpy as np

from ..errors import ModelError, NotFittedError
from ..operand import is_representation
from .losses import sigmoid
from .metrics import accuracy_score, r2_score


class Estimator:
    """Base class: hyperparameters are the constructor keyword arguments."""

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "Estimator":
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Hyperparameter protocol
    # ------------------------------------------------------------------
    @classmethod
    @functools.cache
    def _param_names(cls) -> tuple[str, ...]:
        """The ``__init__`` parameters, read once per class
        (``inspect.signature`` costs more than a whole ``get_params``)."""
        sig = inspect.signature(cls.__init__)
        return tuple(
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind == p.POSITIONAL_OR_KEYWORD
        )

    def get_params(self) -> dict[str, Any]:
        """Current hyperparameter values."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "Estimator":
        """Set hyperparameters in place; returns self for chaining."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ModelError(
                    f"{type(self).__name__} has no hyperparameter {name!r}; "
                    f"valid: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def clone(self) -> "Estimator":
        """A fresh, unfitted copy with the same hyperparameters."""
        return type(self)(**copy.deepcopy(self.get_params()))

    # ------------------------------------------------------------------
    # Fitted-state protocol
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return any(
            name.endswith("_") and not name.startswith("_")
            for name in vars(self)
        )

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before this call"
            )


class _Predictor(Estimator):
    """An estimator that predicts, scored by its role's metric."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """The role's metric of ``predict(X)`` against ``y``."""
        return self._metric(y, self.predict(X))


class Regressor(_Predictor):
    """Estimator predicting real values; scored by R^2."""

    _metric = staticmethod(r2_score)


class Classifier(_Predictor):
    """Estimator predicting discrete labels; scored by mean accuracy."""

    _metric = staticmethod(accuracy_score)


class LinearModel(Estimator):
    """The fitted half of every linear model: a weight vector in,
    margins out. A provider's ``fit`` computes the weights wherever its
    data lives and hands them to :meth:`_unpack`; everything after that
    is inherited."""

    #: providers that never learn an intercept override this on the class
    fit_intercept = True

    def _design(self, X: np.ndarray) -> np.ndarray:
        """``X`` with the intercept's column of ones in front."""
        if self.fit_intercept:
            return np.hstack([np.ones((len(X), 1)), X])
        return X

    def _unpack(self, w: np.ndarray) -> None:
        """Store design-order weights as ``coef_`` / ``intercept_``."""
        if self.fit_intercept:
            self.coef_ = w[1:]
            self.intercept_ = float(w[0])
        else:
            self.coef_ = w
            self.intercept_ = 0.0

    def _rows(self, X):
        """What a predict-time input scores as: a 2-D array, or any
        operand with a ``matvec``. Table-fed models override this."""
        return X if is_representation(X) else check_X(X)

    def decision_function(self, X) -> np.ndarray:
        """Margins ``x.w + b`` per row (for a classifier, positive
        favors ``classes_[1]``)."""
        self._check_fitted()
        X = self._rows(X)
        scores = X.matvec(self.coef_) if is_representation(X) else X @ self.coef_
        return scores + self.intercept_


class LinearRegressor(LinearModel, Regressor):
    """A linear model predicting its margin."""

    def predict(self, X) -> np.ndarray:
        return self.decision_function(X)


class LogisticClassifier(LinearModel, Classifier):
    """A binary linear model whose margin is a log-odds."""

    def predict_proba(self, X) -> np.ndarray:
        """P(class == classes_[1]) per row."""
        return sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        p = self.predict_proba(X)
        return np.where(p >= 0.5, self.classes_[1], self.classes_[0])


def check_X_y(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a design matrix / label vector pair."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ModelError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ModelError(f"y must be 1-D, got shape {y.shape}")
    if len(X) != len(y):
        raise ModelError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ModelError("cannot fit on an empty dataset")
    if not np.isfinite(X).all():
        raise ModelError("X contains NaN or infinite values")
    return X, y


def require_finite(door: str, **arrays: np.ndarray) -> None:
    """Refuse NaN or +-inf in a training door's dense inputs, naming it."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ModelError(f"{door}: {name} contains NaN or infinite values")


def check_X(X: np.ndarray) -> np.ndarray:
    """Validate and coerce a design matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError(f"X must be 2-D, got shape {X.shape}")
    return X


def as_pm_one(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map a binary label vector to {-1, +1}; return (mapped, classes).

    ``classes[0]`` maps to -1 and ``classes[1]`` to +1.
    """
    classes = np.unique(y)
    if len(classes) != 2:
        raise ModelError(
            f"binary classifier requires exactly 2 classes, got {len(classes)}"
        )
    return np.where(y == classes[1], 1.0, -1.0), classes
