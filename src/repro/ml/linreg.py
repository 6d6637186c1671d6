"""Linear least-squares models.

Three solvers are provided because different parts of the reproduction
need different ones: the closed-form normal equations (used by factorized
learning, whose crossprod ``X'X`` is what Morpheus factorizes), a QR
solver (whose factor reuse is what Columbus exploits), and batch gradient
descent (the iterative pattern the declarative-ML compiler optimizes).
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Regressor, check_X, check_X_y
from .losses import SquaredLoss
from .optim import OptimResult, gradient_descent


def solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations ``gram @ w = rhs``; an exactly singular
    system gets the minimum-norm pseudo-inverse solution. Every closed
    form and the Newton step solve here, so fits from the same
    aggregates agree bit for bit."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram) @ rhs


class LinearRegression(Regressor):
    """Ordinary (optionally ridge-regularized) least squares.

    Args:
        solver: ``"normal"`` (Gram-matrix normal equations), ``"qr"``
            (Householder QR), or ``"gd"`` (batch gradient descent).
        l2: ridge penalty coefficient (0 = OLS).
        fit_intercept: learn an unpenalized intercept term.
        max_iter / tol / learning_rate: GD solver controls.
    """

    def __init__(
        self,
        solver: str = "normal",
        l2: float = 0.0,
        fit_intercept: bool = True,
        max_iter: int = 500,
        tol: float = 1e-8,
        learning_rate: float = 1.0,
    ):
        self.solver = solver
        self.l2 = l2
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol
        self.learning_rate = learning_rate

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "LinearRegression":
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        Xd = self._design(X)
        if self.solver == "normal":
            w = self._solve_normal(Xd, y)
        elif self.solver == "qr":
            w = self._solve_qr(Xd, y)
        elif self.solver == "gd":
            result = self._solve_gd(Xd, y)
            w = result.weights
            self.optim_result_ = result
        else:
            raise ModelError(f"unknown solver {self.solver!r}")
        self._unpack(w)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_X(X)
        return X @ self.coef_ + self.intercept_

    # ------------------------------------------------------------------
    def _design(self, X: np.ndarray) -> np.ndarray:
        if self.fit_intercept:
            return np.hstack([np.ones((len(X), 1)), X])
        return X

    def _penalty_matrix(self, d: int) -> np.ndarray:
        P = self.l2 * np.eye(d)
        if self.fit_intercept:
            P[0, 0] = 0.0  # never penalize the intercept
        return P

    def _solve_normal(self, Xd: np.ndarray, y: np.ndarray) -> np.ndarray:
        gram = Xd.T @ Xd + self._penalty_matrix(Xd.shape[1])
        return solve_normal(gram, Xd.T @ y)

    def _solve_qr(self, Xd: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.l2 > 0:
            # Ridge via the augmented system [X; sqrt(l2) I] w = [y; 0].
            d = Xd.shape[1]
            aug = np.sqrt(self._penalty_matrix(d))
            Xd = np.vstack([Xd, aug])
            y = np.concatenate([y, np.zeros(d)])
        Q, R = np.linalg.qr(Xd)
        rhs = Q.T @ y
        try:
            return np.linalg.solve(R, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(R, rhs, rcond=None)[0]

    def _solve_gd(self, Xd: np.ndarray, y: np.ndarray) -> OptimResult:
        return gradient_descent(
            SquaredLoss(),
            Xd,
            y,
            l2=self.l2,
            learning_rate=self.learning_rate,
            max_iter=self.max_iter,
            tol=self.tol,
            warn_on_cap=False,
        )

    def _unpack(self, w: np.ndarray) -> None:
        if self.fit_intercept:
            self.intercept_ = float(w[0])
            self.coef_ = w[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = w


class Ridge(LinearRegression):
    """Ridge regression: least squares with an L2 penalty."""

    def __init__(
        self,
        l2: float = 1.0,
        solver: str = "normal",
        fit_intercept: bool = True,
        max_iter: int = 500,
        tol: float = 1e-8,
        learning_rate: float = 1.0,
    ):
        super().__init__(
            solver=solver,
            l2=l2,
            fit_intercept=fit_intercept,
            max_iter=max_iter,
            tol=tol,
            learning_rate=learning_rate,
        )
