"""E1 — Factorized vs. materialized learning over joins (Orion/Morpheus).

Surveyed claim: factorized linear algebra beats materialize-then-compute,
with the speedup growing in the tuple ratio n_S / n_R.
"""

import numpy as np

import harness
from repro.data import make_star_schema
from repro.factorized import FactorizedLinearRegression, NormalizedMatrix
from repro.incremental import snap_to_grid
from repro.ml import LinearRegression

TUPLE_RATIOS = (1, 2, 5, 10, 20, 40)


def run() -> dict:
    n_r, d_s, d_r = 500, 4, 30
    rows = []
    for tuple_ratio in TUPLE_RATIOS:
        star = make_star_schema(
            n_s=n_r * tuple_ratio, n_r=n_r, d_s=d_s, d_r=d_r, seed=11
        )
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])

        def materialized():
            # includes the join cost the factorized path avoids entirely
            X = star.materialize()
            return LinearRegression(fit_intercept=False).fit(X, star.y)

        def factorized():
            return FactorizedLinearRegression().fit(nm, star.y)

        mat = harness.timed(materialized)
        fact = harness.timed(factorized)
        assert np.allclose(mat.result.coef_, fact.result.coef_, atol=1e-5)
        assert mat.result.score(star.materialize(), star.y) > 0.9
        assert fact.result.score(nm, star.y) > 0.9
        # on grid data every accumulation order is exact: bit-for-bit
        grid = NormalizedMatrix(
            snap_to_grid(star.S), [star.fk], [snap_to_grid(star.R)]
        )
        Xg, yg = grid.materialize(), snap_to_grid(star.y)
        assert np.array_equal(grid.gram(), Xg.T @ Xg) and np.array_equal(
            FactorizedLinearRegression().fit(grid, yg).coef_,
            LinearRegression(fit_intercept=False).fit(Xg, yg).coef_,
        ), f"TR {tuple_ratio}: grid gram / coefficients bit-identical"
        rows.append(
            {
                "tuple_ratio": tuple_ratio,
                "redundancy_ratio": nm.redundancy_ratio,
                **mat.fields("materialized_s"),
                **fact.fields("factorized_s"),
                "speedup": mat.best / fact.best,
            }
        )
    return {"rows": rows}


def report(results: dict) -> None:
    print(f"{'TR':>5} {'redund.':>8} {'mat (s)':>9} {'fact (s)':>9} "
          f"{'speedup':>8}  winner")
    for r in results["rows"]:
        print(
            f"{r['tuple_ratio']:>5} {r['redundancy_ratio']:>8.2f} "
            f"{r['materialized_s']:>9.4f} {r['factorized_s']:>9.4f} "
            f"{r['speedup']:>7.2f}x  "
            f"{'factorized' if r['speedup'] > 1 else 'materialized'}"
        )
