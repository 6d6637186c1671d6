"""E3 — Compressed linear algebra (CLA).

Surveyed claim: column encodings achieve multi-x compression on
low-cardinality / run-structured / sparse data while keeping compressed
matrix-vector kernels competitive with dense.
"""

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.compression import CompressedMatrix
from repro.data import (
    make_low_cardinality_matrix,
    make_run_matrix,
    make_sparse_matrix,
)

#: dataset -> (minimum compression ratio, scheme that must be chosen)
EXPECTED = {
    "low-cardinality": (3.0, "ddc"),
    "run-structured": (20.0, "rle"),
    "sparse (1%)": (5.0, "ole"),
}


def run() -> dict:
    rng = np.random.default_rng(17)
    n, d = 50_000, 10
    datasets = {
        "low-cardinality": make_low_cardinality_matrix(n, d, cardinality=10, seed=1),
        "run-structured": make_run_matrix(n, d, mean_run_length=200, seed=2),
        "sparse (1%)": make_sparse_matrix(n, d, density=0.01, seed=3),
        "random dense": rng.standard_normal((n, d)),
    }
    v = rng.standard_normal(d)
    u = rng.standard_normal(n)
    rows = []
    for name, X in datasets.items():
        encode = harness.timed(lambda: CompressedMatrix.compress(X), repeats=3)
        C = encode.result
        dense = harness.timed(lambda: X @ v, repeats=5)
        comp = harness.timed(lambda: C.matvec(v), repeats=5)
        assert np.allclose(comp.result, dense.result)
        assert np.allclose(C.rmatvec(u), X.T @ u)
        if name in EXPECTED:
            min_ratio, scheme = EXPECTED[name]
            assert C.compression_ratio > min_ratio, (name, C.compression_ratio)
            assert scheme in C.schemes(), (name, C.schemes())
        rows.append(
            {
                "dataset": name,
                "compression_ratio": C.compression_ratio,
                "schemes": C.schemes(),
                **encode.fields("compress_s"),
                **dense.fields("dense_matvec_s"),
                **comp.fields("compressed_matvec_s"),
            }
        )
    return {"rows": rows}


def report(results: dict) -> None:
    print(f"{'dataset':<17} {'ratio':>7} {'schemes':<28} "
          f"{'compress':>9} {'dense MV':>9} {'comp MV':>9}")
    for r in results["rows"]:
        print(
            f"{r['dataset']:<17} {r['compression_ratio']:>6.1f}x "
            f"{str(r['schemes']):<28} {r['compress_s'] * 1e3:>8.1f}m "
            f"{r['dense_matvec_s'] * 1e3:>8.2f}m "
            f"{r['compressed_matvec_s'] * 1e3:>8.2f}m"
        )
