"""E11 — Warm-started regularization paths.

Surveyed claim: reusing the previous lambda's solution as the next
starting point cuts total iterations versus cold starts, with identical
solutions.
"""

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.data import make_classification
from repro.selection import fit_logistic_path


def run() -> dict:
    X, y = make_classification(3000, 12, separation=1.2, seed=47)
    lambdas = np.logspace(0.5, -3, 10)
    warm = fit_logistic_path(X, y, lambdas, warm_start=True, tol=1e-8)
    cold = fit_logistic_path(X, y, lambdas, warm_start=False, tol=1e-8)
    assert len(warm.points) == len(cold.points) == len(lambdas)
    assert warm.total_iterations <= 0.9 * cold.total_iterations
    for wp, cp in zip(warm.points, cold.points):  # same optima along the path
        assert np.allclose(wp.coef, cp.coef, atol=5e-2)
    return {
        "points": [
            {"l2": wp.l2, "cold_iterations": cp.iterations,
             "warm_iterations": wp.iterations}
            for wp, cp in zip(warm.points, cold.points)
        ],
        "cold_total": cold.total_iterations,
        "warm_total": warm.total_iterations,
    }


def report(results: dict) -> None:
    print(f"{'lambda':>10} {'cold iters':>11} {'warm iters':>11}")
    for p in results["points"]:
        print(f"{p['l2']:>10.4f} {p['cold_iterations']:>11} "
              f"{p['warm_iterations']:>11}")
    cold, warm = results["cold_total"], results["warm_total"]
    print(f"{'TOTAL':>10} {cold:>11} {warm:>11}  "
          f"({cold / warm:.2f}x fewer warm)")
