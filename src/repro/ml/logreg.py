"""Binary logistic regression with batch GD, SGD, or Newton solvers."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import LogisticClassifier, as_pm_one, check_X_y
from .linreg import solve_normal
from .losses import LogisticLoss, sigmoid
from .optim import gradient_descent, sgd


class LogisticRegression(LogisticClassifier):
    """Binary logistic regression.

    Labels may be any two distinct values; internally they map to
    {-1, +1} with ``classes_[1]`` as the positive class.

    Args:
        solver: ``"gd"`` (batch gradient descent with line search),
            ``"sgd"`` (mini-batch SGD), or ``"newton"`` (IRLS).
        l2: L2 regularization strength.
        warm_start: if true, reuse ``coef_``/``intercept_`` from a prior
            fit as the starting point (the optimization the tutorial's
            model-selection section highlights for hyperparameter paths).
    """

    def __init__(
        self,
        solver: str = "gd",
        l2: float = 0.0,
        fit_intercept: bool = True,
        learning_rate: float = 1.0,
        max_iter: int = 200,
        tol: float = 1e-7,
        batch_size: int = 32,
        warm_start: bool = False,
        seed: int | None = 0,
    ):
        self.solver = solver
        self.l2 = l2
        self.fit_intercept = fit_intercept
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.batch_size = batch_size
        self.warm_start = warm_start
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "LogisticRegression":
        X, y_raw = check_X_y(X, y)
        y_pm, self.classes_ = as_pm_one(y_raw)
        Xd = self._design(X)
        w0 = self._initial_weights(Xd.shape[1])

        if self.solver == "gd":
            result = gradient_descent(
                LogisticLoss(),
                Xd,
                y_pm,
                w0=w0,
                l2=self.l2,
                learning_rate=self.learning_rate,
                max_iter=self.max_iter,
                tol=self.tol,
                warn_on_cap=False,
            )
            w = result.weights
            self.optim_result_ = result
        elif self.solver == "sgd":
            result = sgd(
                LogisticLoss(),
                Xd,
                y_pm,
                w0=w0,
                l2=self.l2,
                learning_rate=self.learning_rate,
                epochs=self.max_iter,
                batch_size=self.batch_size,
                tol=self.tol,
                seed=self.seed,
            )
            w = result.weights
            self.optim_result_ = result
        elif self.solver == "newton":
            w, iters = self._newton(Xd, y_pm, w0)
            self.n_iter_ = iters
        else:
            raise ModelError(f"unknown solver {self.solver!r}")

        self._unpack(w)
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

    def _newton(
        self, Xd: np.ndarray, y: np.ndarray, w0: np.ndarray | None
    ) -> tuple[np.ndarray, int]:
        """Iteratively reweighted least squares."""
        n, d = Xd.shape
        w = np.zeros(d) if w0 is None else w0.copy()
        loss = LogisticLoss()
        previous = loss.value(Xd, y, w) + 0.5 * self.l2 * float(w @ w)
        it = 0
        for it in range(1, self.max_iter + 1):
            p = sigmoid(Xd @ w)  # P(label=+1) under current model
            weights = p * (1.0 - p)
            grad = Xd.T @ (p - (y + 1) / 2.0) / n + self.l2 * w
            hessian = (Xd.T * weights) @ Xd / n + self.l2 * np.eye(d)
            # Damping keeps the Hessian invertible on separable data.
            hessian += 1e-10 * np.eye(d)
            w = w - solve_normal(hessian, grad)
            current = loss.value(Xd, y, w) + 0.5 * self.l2 * float(w @ w)
            if abs(previous - current) / max(abs(previous), 1e-12) < self.tol:
                break
            previous = current
        return w, it
