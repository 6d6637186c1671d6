"""Feature-subset grid search over materialized fold statistics.

Columbus framed feature selection as a first-class workload: analysts
sweep feature *subsets* the way they sweep hyperparameters, and almost
all of the arithmetic repeats between iterations. This module runs the
full cross product (feature subset) x (l2 grid) x (CV fold) for ridge
regression, with every fold's sufficient statistics computed once as an
augmented self-product and every (subset, fold, lambda) model reduced
to a d x d solve — and, when a
:class:`~repro.materialize.MaterializationStore` is supplied, the fold
statistics are fingerprinted and materialized, so a *second* session
over the same data (tomorrow's run, another analyst's sweep, a wider
lambda grid) reuses them outright instead of recomputing. Warm results
are bit-identical to cold by the store's matching rule.

This is the E24 benchmark workload (``benchmarks/bench_reuse.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SelectionError
from .cv import KFold
from .foldreuse import _prepare, fold_statistics, held_out


@dataclass
class FeatureGridResult:
    """Mean CV error per (subset, lambda), plus the winner."""

    subsets: list[tuple[int, ...]]
    lambdas: list[float]
    #: subset -> per-lambda mean RMSE (aligned with ``lambdas``)
    mean_rmse: dict[tuple[int, ...], list[float]] = field(
        default_factory=dict
    )
    #: solves actually performed: |subsets| x |folds| x |lambdas|
    solves: int = 0

    @property
    def best(self) -> tuple[tuple[int, ...], float, float]:
        """``(subset, lambda, rmse)`` with the lowest mean CV error."""
        best_subset, best_lambda, best_rmse = None, None, float("inf")
        for subset in self.subsets:
            rmses = self.mean_rmse[subset]
            i = int(np.argmin(rmses))
            if rmses[i] < best_rmse:
                best_subset, best_lambda, best_rmse = (
                    subset, self.lambdas[i], rmses[i]
                )
        return best_subset, best_lambda, float(best_rmse)


def ridge_feature_grid(
    X: np.ndarray,
    y: np.ndarray,
    subsets,
    lambdas,
    cv: KFold | int = 5,
    store=None,
) -> FeatureGridResult:
    """Grid-search ridge models over feature subsets x l2 penalties.

    Args:
        subsets: iterable of column-index tuples; each defines one
            candidate feature set ``X[:, subset]``.
        store: optional materialization store. Fold statistics for each
            (subset, fold) are computed through the DSL and offered to
            the store; a warm store serves them without touching rows.

    Every model is solved from ``total - fold`` statistics and scored
    from the held-out fold's own statistics (``w'Gw - 2w'b + y'y``), so
    the cost beyond the (possibly reused) statistics is |grid| d x d
    solves plus O(d^2) algebra — a warm run never reads a data row.
    """
    X, y, lambdas, cv = _prepare(X, y, lambdas, cv)
    subsets = [tuple(int(j) for j in s) for s in subsets]
    if not subsets:
        raise SelectionError("subsets must be non-empty")
    for s in subsets:
        if not s or min(s) < 0 or max(s) >= X.shape[1]:
            raise SelectionError(f"subset {s} out of range for d={X.shape[1]}")
    folds = cv.folds(len(X))

    result = FeatureGridResult(subsets=subsets, lambdas=lambdas)
    for subset in subsets:
        stats = fold_statistics(X, y, folds, store=store, columns=subset)
        errors = np.zeros((len(folds), len(lambdas)))
        for i, (train, fold) in enumerate(held_out(stats)):
            for j, l2 in enumerate(lambdas):
                # Held-out RSS straight from the fold's own statistics.
                rss = fold.rss(train.solve(l2))
                errors[i, j] = float(np.sqrt(max(rss, 0.0) / fold.n))
                result.solves += 1
        result.mean_rmse[subset] = [
            float(v) for v in errors.mean(axis=0)
        ]
    return result
