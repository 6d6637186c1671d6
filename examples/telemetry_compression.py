#!/usr/bin/env python3
"""Anomaly scoring on sensor telemetry with compressed linear algebra.

Fleet telemetry is the CLA sweet spot: status codes and setpoints are
low-cardinality, regimes produce long runs, fault flags are sparse, and
only a few channels are truly continuous. This example compresses a
telemetry matrix, shows the planner choosing a different encoding per
channel, and trains a ridge anomaly-score model *directly on the
compressed representation* — the matrix is never decompressed.

Run: python examples/telemetry_compression.py
"""

import time

import numpy as np

from repro.compression import CompressedMatrix
from repro.ml import Moments, r2_score


def build_telemetry(n: int = 120_000, seed: int = 42):
    """Synthesize a telemetry matrix with per-channel structure."""
    rng = np.random.default_rng(seed)
    channels = {}
    # Operating mode: long runs over 4 regimes.
    mode = np.zeros(n)
    row = 0
    while row < n:
        run = rng.integers(500, 3000)
        mode[row : row + run] = rng.integers(0, 4)
        row += run
    channels["mode"] = mode
    # Setpoints: low-cardinality configuration values.
    setpoints = np.array([55.0, 60.0, 65.0, 70.0, 80.0])
    channels["setpoint"] = setpoints[rng.integers(0, 5, n)]
    channels["fan_profile"] = rng.choice([0.0, 1.0, 2.0], n, p=[0.7, 0.2, 0.1])
    # Fault flags: sparse.
    channels["fault_flag"] = (rng.random(n) < 0.003).astype(float)
    channels["overtemp_flag"] = (rng.random(n) < 0.001).astype(float)
    # Continuous sensors: incompressible.
    channels["vibration"] = rng.standard_normal(n)
    channels["temperature"] = 40 + 5 * rng.standard_normal(n)

    names = list(channels)
    X = np.column_stack([channels[c] for c in names])
    # Anomaly score depends on flags, regime, and vibration.
    score = (
        3.0 * channels["fault_flag"]
        + 5.0 * channels["overtemp_flag"]
        + 0.2 * channels["mode"]
        + 0.5 * channels["vibration"]
        + 0.01 * (channels["temperature"] - 40)
        + 0.05 * rng.standard_normal(n)
    )
    return names, X, score


def main() -> None:
    names, X, y = build_telemetry()
    n, d = X.shape
    print(f"telemetry matrix: {n:,} rows x {d} channels "
          f"({X.nbytes / 1e6:.1f} MB dense)\n")

    start = time.perf_counter()
    C = CompressedMatrix.compress(X, sample_fraction=0.02)
    t_compress = time.perf_counter() - start

    print(f"compressed in {t_compress:.3f}s -> {C.compressed_bytes / 1e6:.2f} MB "
          f"({C.compression_ratio:.1f}x)\n")
    print(f"{'channel':<15} {'scheme':<13} {'distinct (est.)':>16} "
          f"{'est. ratio':>11}")
    for plan in C.plan.columns:
        print(
            f"{names[plan.index]:<15} {plan.scheme:<13} "
            f"{plan.stats.num_distinct:>16,} {plan.estimated_ratio:>10.1f}x"
        )

    # Ridge normal equations straight from compressed kernels.
    print("\ntraining ridge anomaly model on the compressed matrix...")
    start = time.perf_counter()
    w = Moments.of(C, y).solve(1e-6)
    t_train = time.perf_counter() - start
    predictions = C.matvec(w)
    print(f"trained in {t_train:.3f}s, R^2 = {r2_score(y, predictions):.4f}")

    # Verify against a dense reference (this is the only decompression).
    w_dense = np.linalg.solve(X.T @ X + 1e-6 * np.eye(d), X.T @ y)
    print(f"max |w_compressed - w_dense| = {np.abs(w - w_dense).max():.2e}")

    # Score new data through the compressed model.
    top = np.argsort(predictions)[-3:][::-1]
    print("\ntop anomaly rows (index: score, fault, overtemp):")
    for i in top:
        print(f"  {i:>7}: {predictions[i]:6.2f}  fault={X[i, 3]:.0f}  "
              f"overtemp={X[i, 4]:.0f}")


if __name__ == "__main__":
    main()
