"""E10 — Sampling-based compression planning (CLA planner).

Surveyed claim: per-column scheme decisions made from a small sample
agree with exhaustive analysis while planning in a fraction of the time.
"""

import numpy as np

import harness
from repro.compression import CompressedMatrix, plan_matrix
from repro.data import (
    make_low_cardinality_matrix,
    make_run_matrix,
    make_sparse_matrix,
)


def run() -> dict:
    rng = np.random.default_rng(43)
    n = 100_000
    X = np.hstack(
        [
            make_low_cardinality_matrix(n, 3, cardinality=8, seed=1),
            make_run_matrix(n, 3, mean_run_length=300, seed=2),
            make_sparse_matrix(n, 3, density=0.01, seed=3),
            rng.standard_normal((n, 3)),
        ]
    )
    t_sampled = harness.timed(
        lambda: plan_matrix(X, sample_fraction=0.01), repeats=1
    )
    t_exact = harness.timed(lambda: plan_matrix(X, exact=True), repeats=1)
    sampled, exact = t_sampled.result.columns, t_exact.result.columns
    assert len(sampled) == len(exact) == X.shape[1]
    agree = sum(s.scheme == e.scheme for s, e in zip(sampled, exact))
    assert agree >= 10, f"only {agree}/12 columns classified identically"
    # the sample's size estimate tracks what compression then achieves
    estimated = sum(p.dense_bytes for p in sampled) / sum(
        p.estimated_bytes for p in sampled
    )
    actual = CompressedMatrix.compress(X, sample_fraction=0.01).compression_ratio
    assert abs(estimated - actual) <= 0.5 * actual, (estimated, actual)
    return {
        "agreement": agree,
        **t_sampled.fields("sampled_s"),
        **t_exact.fields("exact_s"),
        "columns": [
            {
                "index": s.index,
                "exact_scheme": e.scheme,
                "sampled_scheme": s.scheme,
                "estimated_ratio": s.estimated_ratio,
            }
            for s, e in zip(sampled, exact)
        ],
    }


def report(results: dict) -> None:
    columns = results["columns"]
    print(f"columns: {len(columns)}   scheme agreement: "
          f"{results['agreement']}/{len(columns)}")
    print(f"planning time: sampled {results['sampled_s']:.3f}s vs exact "
          f"{results['exact_s']:.3f}s "
          f"({results['exact_s'] / results['sampled_s']:.1f}x faster)")
    print(f"\n{'col':>4} {'exact scheme':<14} {'sampled scheme':<15} "
          f"{'est. ratio':>10}")
    for c in columns:
        print(f"{c['index']:>4} {c['exact_scheme']:<14} "
              f"{c['sampled_scheme']:<15} {c['estimated_ratio']:>9.1f}x")
