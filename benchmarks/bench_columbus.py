"""E8 — Feature-subset exploration with statistics reuse (Columbus).

Surveyed claim: caching the shared sufficient statistics (X'X, X'y) makes
per-subset least-squares solves data-size independent, beating per-subset
recomputation by orders of magnitude during exploration.
"""

import numpy as np

import harness
from repro.data import make_regression
from repro.feateng import FeatureSubsetExplorer, solve_subset_naive

SUBSETS = [list(range(k)) for k in (2, 5, 10, 20)] + [[0, 5, 7, 12, 25]]


def run() -> dict:
    rows = []
    for n in (10_000, 50_000, 200_000):
        X, y, _ = make_regression(n, 30, noise=0.5, seed=37)
        pre = harness.timed(lambda: FeatureSubsetExplorer(X, y), repeats=1)
        explorer = pre.result
        naive = harness.timed(
            lambda: [solve_subset_naive(X, y, s) for s in SUBSETS], repeats=1
        )
        fast = harness.timed(
            lambda: [explorer.solve_subset(s) for s in SUBSETS], repeats=3
        )
        for reused, solved in zip(fast.result, naive.result):
            assert np.allclose(reused.coef, solved.coef, atol=1e-6)
        rows.append(
            {
                "n_rows": n,
                **naive.fields("naive_s"),
                **fast.fields("columbus_s"),
                "speedup": naive.best / fast.best,
                **pre.fields("precompute_s"),
            }
        )
    return {"subsets": len(SUBSETS), "rows": rows}


def report(results: dict) -> None:
    naive_header = f"naive {results['subsets']} solves"
    print(f"{'n rows':>9} {naive_header:>15} {'columbus':>10} "
          f"{'speedup':>8} {'+precompute':>12}")
    for r in results["rows"]:
        print(
            f"{r['n_rows']:>9,} {r['naive_s']:>14.4f}s {r['columbus_s']:>9.4f}s "
            f"{r['speedup']:>7.0f}x {r['precompute_s']:>11.4f}s"
        )
