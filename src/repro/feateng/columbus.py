"""Feature-subset exploration with sufficient-statistic reuse (Columbus).

Data scientists explore many feature *subsets* of the same table when
building linear models. Solving each subset from scratch costs
O(n k^2) per subset; Columbus's observation is that the full Gram matrix
X'X and correlation vector X'y are *shared sufficient statistics* — once
computed in O(n d^2), every subset's least-squares problem is solved from
the corresponding submatrices in O(k^3), independent of n.

:class:`FeatureSubsetExplorer` implements that reuse; the naive path and
greedy stepwise selection on top of it complete experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SelectionError
from ..ml.linreg import Moments


@dataclass
class SubsetFit:
    """Least-squares solution for one feature subset."""

    columns: tuple[int, ...]
    coef: np.ndarray
    intercept: float
    r_squared: float


class FeatureSubsetExplorer:
    """Shared-statistics least squares over feature subsets.

    Statistics are computed on *centered* data, so every subset solve
    implicitly fits an (unpenalized) intercept — matching what analysts
    expect from per-subset R^2 comparisons.

    Args:
        l2: optional ridge penalty applied to every subset solve.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, l2: float = 0.0):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise SelectionError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise SelectionError(f"X has {len(X)} rows but y has {len(y)}")
        self.n, self.d = X.shape
        self.l2 = l2
        self.x_mean_ = X.mean(axis=0)
        self.y_mean_ = float(y.mean())
        # The one-time O(n d^2) pass every subsequent solve reuses
        # (centered, so ``yty`` is the total sum of squares).
        self.moments_ = Moments.of(X - self.x_mean_, y - self.y_mean_)

    def solve_subset(self, columns: Sequence[int]) -> SubsetFit:
        """Least squares restricted to ``columns``, from cached statistics."""
        cols = self._check_columns(columns)
        subset = self.moments_.take(cols)
        coef = subset.solve(self.l2)
        intercept = self.y_mean_ - float(self.x_mean_[cols] @ coef)
        return SubsetFit(
            columns=tuple(cols),
            coef=coef,
            intercept=intercept,
            r_squared=self._r_squared(subset.rss(coef)),
        )

    def _r_squared(self, residual_ss: float) -> float:
        total_ss = self.moments_.yty
        if total_ss == 0.0:
            return 1.0 if residual_ss <= 1e-12 else 0.0
        return 1.0 - max(residual_ss, 0.0) / total_ss

    def _check_columns(self, columns: Sequence[int]) -> list[int]:
        cols = list(dict.fromkeys(int(c) for c in columns))
        if not cols:
            raise SelectionError("subset must contain at least one column")
        bad = [c for c in cols if not 0 <= c < self.d]
        if bad:
            raise SelectionError(f"column indices out of range: {bad}")
        return cols

    # ------------------------------------------------------------------
    # Exploration strategies built on the shared statistics
    # ------------------------------------------------------------------
    def forward_selection(
        self, max_features: int | None = None, min_gain: float = 1e-6
    ) -> list[SubsetFit]:
        """Greedy stepwise selection: add the feature with best R^2 gain.

        Returns the fit after each accepted step. Every candidate probe
        is an O(k^3) submatrix solve — the Columbus win is that a full
        stepwise run touches the data exactly once (in __init__).
        """
        limit = self.d if max_features is None else min(max_features, self.d)
        selected: list[int] = []
        trail: list[SubsetFit] = []
        current_r2 = 0.0
        while len(selected) < limit:
            best_fit = None
            for candidate in range(self.d):
                if candidate in selected:
                    continue
                fit = self.solve_subset(selected + [candidate])
                if best_fit is None or fit.r_squared > best_fit.r_squared:
                    best_fit = fit
            if best_fit is None or best_fit.r_squared - current_r2 < min_gain:
                break
            selected = list(best_fit.columns)
            current_r2 = best_fit.r_squared
            trail.append(best_fit)
        return trail


def solve_subset_naive(
    X: np.ndarray, y: np.ndarray, columns: Sequence[int]
) -> SubsetFit:
    """The no-reuse baseline: recompute the subset solve from raw data.

    Costs O(n k^2) per call — what exploration pays without Columbus.
    Fits an intercept via centering, like the explorer.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cols = list(dict.fromkeys(int(c) for c in columns))
    Xs = X[:, cols]
    x_mean = Xs.mean(axis=0)
    y_mean = float(y.mean())
    Xc = Xs - x_mean
    yc = y - y_mean
    moments = Moments.of(Xc, yc)
    coef = moments.solve()
    residual = yc - Xc @ coef
    total = moments.yty
    r2 = 1.0 - float(residual @ residual) / total if total else 1.0
    return SubsetFit(
        columns=tuple(cols),
        coef=coef,
        intercept=y_mean - float(x_mean @ coef),
        r_squared=r2,
    )
