"""Cross-validation with shared sufficient statistics.

For ridge regression, k-fold CV over an l2 grid does not need k x |grid|
passes over the data: the Gram matrix and correlation vector are
*additive over rows*, so one pass per fold yields per-fold statistics,
and every training set's statistics are ``total - fold``. Each
(fold, lambda) evaluation then costs one d x d solve — independent of n
and of the grid size. This is model-selection computation sharing in its
purest form (the same structure Columbus exploits across feature
subsets, applied across folds and hyperparameters).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from ..errors import SelectionError
from ..ml.linreg import Moments
from .cv import KFold


@dataclass
class RidgeCVResult:
    """Mean CV error per lambda, plus the winner."""

    lambdas: list[float]
    mean_rmse: list[float]
    fold_rmse: dict[float, list[float]] = field(default_factory=dict)
    data_passes: int = 0  # full-data row scans performed

    @property
    def best_lambda(self) -> float:
        return self.lambdas[int(np.argmin(self.mean_rmse))]

    @property
    def best_rmse(self) -> float:
        return float(min(self.mean_rmse))


def _prepare(X, y, lambdas, cv):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise SelectionError("X must be 2-D with one label per row")
    lambdas = [float(l) for l in lambdas]
    if not lambdas or any(l < 0 for l in lambdas):
        raise SelectionError("lambdas must be non-empty and non-negative")
    if isinstance(cv, int):
        cv = KFold(cv)
    return X, y, lambdas, cv


def fold_statistics(
    X: np.ndarray,
    y: np.ndarray,
    folds,
    store=None,
    columns=None,
) -> list[Moments]:
    """Per-fold :class:`~repro.ml.linreg.Moments`, optionally reused.

    Each fold's statistics are one augmented self-product ``t(Z) %*% Z``
    with ``Z = [X_fold[:, columns] | y_fold]`` — a single fused tsmm
    executed through the DSL. With a
    :class:`~repro.materialize.MaterializationStore`, the statistic is
    identified by *derived-slice identity*: it is a deterministic
    function of the full base operands and the slice specification, so
    its fingerprint hashes ``X`` and ``y`` once per session (content
    hashes are memoized on object identity) and encodes the fold's row
    indices and the column subset in the structural component. A warm
    store therefore serves every fold without touching — or re-hashing —
    the fold's bytes, and a hit is bit-identical to cold compute because
    equal base bytes plus an equal slice spec derive equal slices.
    """
    cols = None if columns is None else tuple(int(j) for j in columns)

    def rows_of(fold) -> np.ndarray:
        return X[fold] if cols is None else X[np.asarray(fold)][:, cols]

    if store is None:
        return [Moments.of(rows_of(fold), y[fold]) for fold in folds]

    import hashlib

    from ..lang.dsl import matrix
    from ..materialize import Fingerprint, content_hash
    from ..runtime.executor import execute

    x_hash = content_hash(X)
    y_hash = content_hash(y)
    col_spec = "all" if cols is None else ",".join(map(str, cols))
    stats: list[Moments] = []
    for fold in folds:
        rows = hashlib.sha256(
            np.ascontiguousarray(fold, dtype=np.int64).tobytes()
        ).hexdigest()[:24]
        spec = f"foldstats:aug_tsmm[rows={rows};cols={col_spec}]"
        fp = Fingerprint(
            structural=hashlib.sha256(spec.encode("utf-8")).hexdigest(),
            operands=(x_hash, y_hash),
            flags="",
        )
        aug = store.lookup(fp)
        if aug is None:
            Z = np.ascontiguousarray(
                np.hstack([rows_of(fold), y[fold].reshape(-1, 1)])
            )
            zvar = matrix("Z", Z.shape)
            aug = execute(zvar.T @ zvar, {"Z": Z})
            store.put(
                fp,
                aug,
                label=spec,
                flops=2.0 * Z.shape[0] * Z.shape[1] ** 2,
            )
        stats.append(Moments.of_augmented(aug, len(fold)))
    return stats


def held_out(stats: list[Moments]):
    """Each fold's ``(training moments, its own)``: the training set is
    the ring complement ``total - fold`` — no second pass over rows."""
    total = functools.reduce(operator.add, stats)
    return [(total - fold, fold) for fold in stats]


def ridge_cv_shared(
    X: np.ndarray,
    y: np.ndarray,
    lambdas,
    cv: KFold | int = 5,
) -> RidgeCVResult:
    """K-fold ridge CV from per-fold sufficient statistics.

    One pass over the data per fold; every (fold, lambda) model after
    that is an O(d^3) solve on cached statistics.
    """
    X, y, lambdas, cv = _prepare(X, y, lambdas, cv)
    folds = cv.folds(len(X))

    # Per-fold statistics: one scan each (k passes total).
    stats = fold_statistics(X, y, folds)

    result = RidgeCVResult(
        lambdas=lambdas,
        mean_rmse=[],
        data_passes=len(folds),
    )
    errors: dict[float, list[float]] = {l: [] for l in lambdas}
    for fold, (train, _) in zip(folds, held_out(stats)):
        X_test, y_test = X[fold], y[fold]
        for l2 in lambdas:
            w = train.solve(l2)
            residual = X_test @ w - y_test
            errors[l2].append(float(np.sqrt(np.mean(residual**2))))
    result.fold_rmse = errors
    result.mean_rmse = [float(np.mean(errors[l])) for l in lambdas]
    return result


def ridge_cv_naive(
    X: np.ndarray,
    y: np.ndarray,
    lambdas,
    cv: KFold | int = 5,
) -> RidgeCVResult:
    """The no-sharing baseline: refit from raw rows per (fold, lambda)."""
    X, y, lambdas, cv = _prepare(X, y, lambdas, cv)
    folds = cv.folds(len(X))

    result = RidgeCVResult(lambdas=lambdas, mean_rmse=[], data_passes=0)
    errors: dict[float, list[float]] = {l: [] for l in lambdas}
    for i, fold in enumerate(folds):
        mask = np.ones(len(X), dtype=bool)
        mask[fold] = False
        X_train, y_train = X[mask], y[mask]
        X_test, y_test = X[fold], y[fold]
        for l2 in lambdas:
            result.data_passes += 1  # full Gram recomputation from rows
            w = Moments.of(X_train, y_train).solve(l2)
            residual = X_test @ w - y_test
            errors[l2].append(float(np.sqrt(np.mean(residual**2))))
    result.fold_rmse = errors
    result.mean_rmse = [float(np.mean(errors[l])) for l in lambdas]
    return result
