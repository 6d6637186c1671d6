"""E13 — Sparsity exploitation (CSR kernels vs dense).

Surveyed claim: sparse formats cut memory by ~1/density and make kernel
cost scale with nnz instead of n*d, so sparse-aware systems win big on
low-density inputs and lose nothing architecturally on dense ones (the
format decision is made per input).
"""

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.data import make_sparse_matrix
from repro.sparse import CSRMatrix

DENSITIES = (0.001, 0.01, 0.05, 0.2, 0.5)


def run() -> dict:
    n, d = 50_000, 200
    rng = np.random.default_rng(59)
    v = rng.standard_normal(d)
    u = rng.standard_normal(n)
    rows = []
    for density in DENSITIES:
        Xd = make_sparse_matrix(n, d, density=density, seed=61)
        X = CSRMatrix.from_dense(Xd)
        dense = harness.timed(lambda: Xd @ v, repeats=3)
        sparse = harness.timed(lambda: X.matvec(v), repeats=3)
        assert np.allclose(sparse.result, dense.result)
        assert np.allclose(X.rmatvec(u), Xd.T @ u)
        if density <= 0.01:
            assert X.nbytes < Xd.nbytes / 20, (density, X.nbytes, Xd.nbytes)
        rows.append(
            {
                "density": density,
                "memory_ratio": Xd.nbytes / X.nbytes,
                **dense.fields("dense_matvec_s"),
                **sparse.fields("csr_matvec_s"),
            }
        )
    return {"rows": rows}


def report(results: dict) -> None:
    print(f"{'density':>8} {'mem ratio':>10} {'dense MV':>9} {'CSR MV':>9} "
          f"{'winner':>8}")
    for r in results["rows"]:
        csr_wins = r["csr_matvec_s"] < r["dense_matvec_s"]
        print(
            f"{r['density']:>8.3f} {r['memory_ratio']:>9.1f}x "
            f"{r['dense_matvec_s'] * 1e3:>8.2f}m {r['csr_matvec_s'] * 1e3:>8.2f}m "
            f"{'CSR' if csr_wins else 'dense':>8}"
        )
