"""Linear least-squares models.

Two solvers are provided because different parts of the reproduction
need different ones: the closed-form normal equations (used by factorized
learning, whose crossprod ``X'X`` is what Morpheus factorizes) and a QR
solver (whose factor reuse is what Columbus exploits). The iterative
pattern the declarative-ML compiler optimizes is
:func:`repro.algorithms.glm.logreg_gd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ModelError
from .base import LinearRegressor, check_X_y


def solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations ``gram @ w = rhs``; an exactly singular
    system gets the minimum-norm pseudo-inverse solution. Every closed
    form solves here, so fits from the same
    aggregates agree bit for bit."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram) @ rhs


def _penalty(l2: float, d: int, unpenalized: int) -> np.ndarray:
    """``l2 * I`` with the first ``unpenalized`` (intercept) entries zero."""
    P = l2 * np.eye(d)
    P[:unpenalized, :unpenalized] = 0.0
    return P


@dataclass(frozen=True, eq=False)
class Moments:
    """The aggregates least squares is a function of: ``X'X``, ``X'y``,
    ``y'y`` and the row count, over some set of rows.

    Where the rows live only changes how the aggregates are computed
    (:meth:`of`); they form a ring under ``+`` / ``-``, so a fold
    complement, a deleted batch and a maintained table are arithmetic on
    values of this class, and every closed-form consumer — the ridge
    solve, a column subset, a held-out RSS — is written here once.
    ``yty`` is NaN where a provider does not accumulate it.
    """

    gram: np.ndarray
    xty: np.ndarray
    yty: float
    n: int

    @classmethod
    def of(cls, X, y: np.ndarray) -> "Moments":
        """One pass over the rows: BLAS for a dense array; any operand
        (CSR, CLA, normalized) answers with its own kernels."""
        if isinstance(X, np.ndarray):
            gram, xty = X.T @ X, X.T @ y
        else:
            gram, xty = X.gram(), X.rmatvec(y)
        return cls(gram, xty, float(y @ y), len(y))

    @classmethod
    def of_augmented(cls, aug: np.ndarray, n: int) -> "Moments":
        """From the self-product ``[X | y]' [X | y]`` of ``n`` rows."""
        d = len(aug) - 1
        return cls(
            np.ascontiguousarray(aug[:d, :d]),
            np.ascontiguousarray(aug[:d, d]),
            float(aug[d, d]),
            n,
        )

    def __add__(self, other: "Moments") -> "Moments":
        return Moments(
            self.gram + other.gram, self.xty + other.xty,
            self.yty + other.yty, self.n + other.n,
        )

    def __sub__(self, other: "Moments") -> "Moments":
        return Moments(
            self.gram - other.gram, self.xty - other.xty,
            self.yty - other.yty, self.n - other.n,
        )

    def take(self, columns: Sequence[int]) -> "Moments":
        """The aggregates of ``X[:, columns]`` over the same rows."""
        cols = list(columns)
        return Moments(
            self.gram[np.ix_(cols, cols)], self.xty[cols], self.yty, self.n
        )

    def solve(self, l2: float = 0.0, unpenalized: int = 0) -> np.ndarray:
        """Ridge weights ``(X'X + l2 I)^-1 X'y``; the first
        ``unpenalized`` columns (an intercept's) carry no penalty."""
        gram = self.gram
        if l2:
            gram = gram + _penalty(l2, len(gram), unpenalized)
        return solve_normal(gram, self.xty)

    def rss(self, w: np.ndarray) -> float:
        """``||X w - y||^2`` from the aggregates alone: no row access."""
        return (
            float(w @ self.gram @ w) - 2.0 * float(w @ self.xty) + self.yty
        )


class LinearRegression(LinearRegressor):
    """Ordinary (optionally ridge-regularized) least squares.

    Args:
        solver: ``"normal"`` (Gram-matrix normal equations) or ``"qr"``
            (Householder QR).
        l2: ridge penalty coefficient (0 = OLS).
        fit_intercept: learn an unpenalized intercept term.
    """

    def __init__(
        self,
        solver: str = "normal",
        l2: float = 0.0,
        fit_intercept: bool = True,
    ):
        self.solver = solver
        self.l2 = l2
        self.fit_intercept = fit_intercept

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "LinearRegression":
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        Xd = self._design(X)
        if self.solver == "normal":
            w = Moments.of(Xd, y).solve(self.l2, int(self.fit_intercept))
        elif self.solver == "qr":
            w = self._solve_qr(Xd, y)
        else:
            raise ModelError(f"unknown solver {self.solver!r}")
        self._unpack(w)
        return self

    # ------------------------------------------------------------------
    def _solve_qr(self, Xd: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.l2 > 0:
            # Ridge via the augmented system [X; sqrt(l2) I] w = [y; 0].
            d = Xd.shape[1]
            aug = np.sqrt(_penalty(self.l2, d, int(self.fit_intercept)))
            Xd = np.vstack([Xd, aug])
            y = np.concatenate([y, np.zeros(d)])
        Q, R = np.linalg.qr(Xd)
        rhs = Q.T @ y
        try:
            return np.linalg.solve(R, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(R, rhs, rcond=None)[0]
