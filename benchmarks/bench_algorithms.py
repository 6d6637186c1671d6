"""E16 — Declarative algorithm scripts vs hand-written library code.

Surveyed claim: algorithms authored in a declarative LA language and run
through the optimizing compiler match hand-optimized implementations —
the programmer writes math, the compiler recovers the efficient plan.
"""

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.algorithms import kmeans_dsl, linreg_cg, linreg_direct, pca_dsl
from repro.data import make_blobs, make_regression
from repro.ml import KMeans, LinearRegression


def run() -> dict:
    X, y, _ = make_regression(20_000, 50, noise=0.2, seed=71)
    Xb, _ = make_blobs(5000, 8, centers=5, seed=71)
    workloads = {
        "linreg library": lambda: LinearRegression(fit_intercept=False).fit(X, y),
        "linreg DSL direct": lambda: linreg_direct(X, y),
        "linreg DSL CG": lambda: linreg_cg(X, y, tol=1e-10),
        "kmeans library": lambda: KMeans(5, n_init=1, init="random", seed=1).fit(Xb),
        "kmeans DSL": lambda: kmeans_dsl(Xb, 5, seed=1),
        "pca DSL": lambda: pca_dsl(X, 5),
    }
    timings = {
        name: harness.timed(fn, repeats=2) for name, fn in workloads.items()
    }
    fit = {name: t.result for name, t in timings.items()}
    reference = fit["linreg library"].coef_
    assert np.allclose(fit["linreg DSL direct"].weights, reference, atol=1e-6)
    assert np.allclose(fit["linreg DSL CG"].weights, reference, atol=1e-4)
    assert fit["kmeans DSL"].inertia <= fit["kmeans library"].inertia_ * 2.0
    eigenvalues = np.linalg.eigh(np.cov(X, rowvar=False))[0][::-1][:5]
    assert np.allclose(fit["pca DSL"].explained_variance, eigenvalues), (
        "pca DSL: explained variance != eigh(cov(X))"
    )
    return {
        "rows": [
            {"workload": name, **t.fields("seconds")}
            for name, t in timings.items()
        ]
    }


def report(results: dict) -> None:
    print(f"{'workload':<20} {'time (s)':>9}")
    for r in results["rows"]:
        print(f"{r['workload']:<20} {r['seconds']:>9.4f}")
