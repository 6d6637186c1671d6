"""E17 — Cross-validation with shared fold statistics.

Surveyed claim: per-fold Gram deltas make the size of a ridge l2 grid
free — one data pass per fold instead of one per (fold, lambda) — with
RMSE identical to per-configuration refits.
"""

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.data import make_regression
from repro.selection import ridge_cv_naive, ridge_cv_shared

FOLDS = 5


def run() -> dict:
    X, y, _ = make_regression(20_000, 30, noise=0.3, seed=73)
    lambdas = np.logspace(-3, 3, 10)
    naive = harness.timed(
        lambda: ridge_cv_naive(X, y, lambdas, cv=FOLDS), repeats=1
    )
    shared = harness.timed(
        lambda: ridge_cv_shared(X, y, lambdas, cv=FOLDS), repeats=1
    )
    assert np.allclose(naive.result.mean_rmse, shared.result.mean_rmse, atol=1e-9)
    assert naive.result.data_passes == FOLDS * len(lambdas)
    assert shared.result.data_passes == FOLDS
    return {
        "variants": [
            {
                "variant": name,
                **timing.fields("seconds"),
                "data_passes": timing.result.data_passes,
                "best_lambda": timing.result.best_lambda,
            }
            for name, timing in (("naive", naive), ("shared", shared))
        ],
        "speedup": naive.best / shared.best,
    }


def report(results: dict) -> None:
    print(f"{'variant':<10} {'time (s)':>9} {'data passes':>12} {'best l2':>9}")
    for v in results["variants"]:
        print(f"{v['variant']:<10} {v['seconds']:>9.4f} {v['data_passes']:>12} "
              f"{v['best_lambda']:>9.4g}")
    print(f"speedup {results['speedup']:.1f}x with identical RMSE per "
          "(fold, lambda)")
