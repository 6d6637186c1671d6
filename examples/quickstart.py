#!/usr/bin/env python3
"""Quickstart: a ten-minute tour of the repro library.

Covers the four pillars of the SIGMOD 2017 tutorial this library
reproduces: (1) the declarative linear-algebra DSL with its optimizing
compiler, (2) compressed linear algebra, (3) factorized learning over
normalized data, and (4) in-database ML on the relational substrate.

Run: python examples/quickstart.py
"""

import numpy as np

from repro.compiler import compile_expr
from repro.compression import CompressedMatrix
from repro.data import (
    make_low_cardinality_matrix,
    make_regression,
    make_star_schema,
)
from repro.factorized import FactorizedLinearRegression, NormalizedMatrix
from repro.indb import InDBLogisticRegression
from repro.lang import matrix, sumall
from repro.ml import LinearRegression, LogisticRegression, Moments, train_test_split
from repro.runtime import execute
from repro.storage import Table


def section(title: str) -> None:
    print(f"\n--- {title} " + "-" * max(0, 60 - len(title)))


def main() -> None:
    # ------------------------------------------------------------------
    section("1. Declarative linear algebra: write math, get an optimized plan")
    n, d = 5000, 50
    X = matrix("X", (n, d))
    w = matrix("w", (d, 1))
    y = matrix("y", (n, 1))

    # Written naively: (t(X) %*% X) %*% w would cost O(n d^2).
    gradient = (X.T @ X @ w - X.T @ y) / n
    plan = compile_expr(gradient)
    print(plan.explain())
    print(
        f"\noptimizer cut FLOPs {plan.cost_before.flops:,} -> "
        f"{plan.cost_after.flops:,}"
    )

    rng = np.random.default_rng(0)
    Xv, yv = rng.standard_normal((n, d)), rng.standard_normal(n)
    wv = np.zeros(d)
    g = execute(plan, {"X": Xv, "y": yv, "w": wv})
    print(f"gradient at w=0 has norm {np.linalg.norm(g):.4f}")

    # ------------------------------------------------------------------
    section("2. Train models: the ML library")
    X_np, y_np, w_true = make_regression(2000, 10, noise=0.1, seed=1)
    X_tr, X_te, y_tr, y_te = train_test_split(X_np, y_np, 0.25, seed=1)
    model = LinearRegression(solver="qr").fit(X_tr, y_tr)
    print(f"linear regression test R^2 = {model.score(X_te, y_te):.4f}")
    loss_expr = sumall((matrix("X", X_tr.shape) @ matrix("w", (10, 1))
                        - matrix("y", (len(X_tr), 1))) ** 2) / len(X_tr)
    mse = execute(loss_expr, {"X": X_tr, "y": y_tr, "w": model.coef_})
    print(f"same model's train MSE via the compiled DSL = {mse:.4f}")

    # ------------------------------------------------------------------
    section("3. Compressed linear algebra: train without decompressing")
    Xc = make_low_cardinality_matrix(20_000, 8, cardinality=10, seed=2)
    yc = Xc @ rng.standard_normal(8)
    C = CompressedMatrix.compress(Xc)
    print(
        f"compressed {C.dense_bytes:,} B -> {C.compressed_bytes:,} B "
        f"({C.compression_ratio:.1f}x) using {C.schemes()}"
    )
    # Normal equations straight from compressed kernels:
    w_hat = Moments.of(C, yc).solve(1e-9)
    print(f"weights recovered on compressed data: "
          f"max error = {np.abs(C.matvec(w_hat) - yc).max():.2e}")

    # ------------------------------------------------------------------
    section("4. Factorized learning: skip the join")
    star = make_star_schema(n_s=20_000, n_r=200, d_s=4, d_r=30, seed=3)
    nm = NormalizedMatrix(star.S, [star.fk], [star.R])
    print(
        f"star schema: tuple ratio {star.tuple_ratio:.0f}, "
        f"redundancy avoided {nm.redundancy_ratio:.1f}x"
    )
    factorized = FactorizedLinearRegression().fit(nm, star.y)
    print(f"factorized model R^2 = {factorized.score(nm, star.y):.4f} "
          f"(identical to training on the materialized join)")

    # ------------------------------------------------------------------
    section("5. In-database ML: logistic regression as a UDA")
    X_clf = rng.standard_normal((3000, 5))
    y_clf = (X_clf @ np.ones(5) + 0.3 * rng.standard_normal(3000) > 0).astype(int)
    table = Table.from_columns(
        {f"f{i}": X_clf[:, i] for i in range(5)} | {"churned": y_clf}
    )
    indb = InDBLogisticRegression(epochs=15, learning_rate=0.5).fit(
        table, [f"f{i}" for i in range(5)], "churned"
    )
    print(f"in-DB IGD logistic regression accuracy = "
          f"{indb.score(table, 'churned'):.4f}")
    in_memory = LogisticRegression().fit(X_clf, y_clf)
    print(f"in-memory reference accuracy          = "
          f"{in_memory.score(X_clf, y_clf):.4f}")

    print("\nDone. See examples/*.py for deeper scenarios and "
          "benchmarks/run_experiments.py for the full experiment suite.")


if __name__ == "__main__":
    main()
