#!/usr/bin/env python3
"""E19 — Representation-aware execution of DSL iteration loops.

Runs DSL logistic gradient descent and k-means end-to-end over operands
that arrive compressed (CLA column groups), sparse (CSR), or factorized
(Morpheus normalized matrix), and compares against the
materialize-then-dense baseline: densify the operand once, then run the
identical dense loop. The representation path executes every iteration
on native kernels — the benchmark asserts parity within 1e-9 and that
no operator fell back to densification — and reports the iteration-loop
speedup plus the peak bytes held in operand + intermediates.

Usage::

    python benchmarks/bench_repr_exec.py             # full sizes
    python benchmarks/bench_repr_exec.py --quick     # CI smoke run
    python benchmarks/bench_repr_exec.py --out BENCH_repr_exec.json
"""

from __future__ import annotations

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.algorithms import kmeans_dsl, logreg_gd
from repro.compiler import compile_expr
from repro.compression import CompressedMatrix
from repro.data import (
    make_low_cardinality_matrix,
    make_sparse_matrix,
    make_star_schema,
)
from repro.factorized import NormalizedMatrix
from repro.lang import matrix, rowsums, sigmoid
from repro.runtime import execute
from repro.runtime.repops import densify, operand_bytes
from repro.sparse import CSRMatrix


# ----------------------------------------------------------------------
# The two iteration-loop programs (mirrors of the algorithm scripts),
# compiled here so per-iteration ExecutionStats can be captured.
# ----------------------------------------------------------------------
def _logreg_grad_plan(n, d):
    Xm = matrix("X", (n, d))
    wm = matrix("w", (d, 1))
    ym = matrix("y", (n, 1))
    return compile_expr(Xm.T @ (sigmoid(Xm @ wm) - ym) / n)


def _kmeans_dist_plan(n, d, k):
    Xm = matrix("X", (n, d))
    Cm = matrix("C", (k, d))
    return compile_expr(
        rowsums(Xm**2) - 2.0 * (Xm @ Cm.T) + rowsums(Cm**2).T
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _rep_vs_dense(
    workload, X_rep, fit, error, plan, plan_bindings, repeats
) -> dict:
    """``fit(X)`` over the native representation vs materialize-then-
    dense: timings, parity (``error(rep fit, dense fit)`` within 1e-9),
    and per-iteration byte/fallback accounting of ``plan`` on both
    operands (``plan_bindings(dense fit)`` supplies the other inputs)."""
    t_rep = harness.timed(lambda: fit(X_rep), repeats)

    def materialize_then_dense():
        X_dense = densify(X_rep)
        return X_dense, fit(X_dense)

    t_dense_total = harness.timed(materialize_then_dense, repeats)
    X_dense, fit_dense = t_dense_total.result
    t_dense_loop = harness.timed(lambda: fit(X_dense), repeats)

    err = float(error(t_rep.result, fit_dense))
    assert err <= 1e-9, f"{workload}: parity {err:.1e} <= 1e-09"

    others = plan_bindings(fit_dense)
    _, rep_stats = execute(plan, {"X": X_rep, **others}, collect_stats=True)
    _, dense_stats = execute(plan, {"X": X_dense, **others}, collect_stats=True)
    assert rep_stats.fallback_count == 0, (
        f"{workload}: zero densify fallbacks ({rep_stats.densify_fallbacks})"
    )
    rep_peak = operand_bytes(X_rep) + rep_stats.intermediate_bytes
    dense_peak = X_dense.nbytes + dense_stats.intermediate_bytes
    # Acceptance: every compact operand beats materialize-then-dense on
    # peak bytes (operand + intermediates).
    assert rep_peak < dense_peak, (
        f"{workload}: rep peak {rep_peak:,}B < dense {dense_peak:,}B"
    )
    return {
        "parity_error": err,
        **t_rep.fields("rep_seconds"),
        **t_dense_total.fields("dense_total_seconds"),
        **t_dense_loop.fields("dense_loop_seconds"),
        "end_to_end_speedup": t_dense_total.best / t_rep.best,
        "loop_speedup": t_dense_loop.best / t_rep.best,
        "rep_peak_bytes": rep_peak,
        "dense_peak_bytes": dense_peak,
        "densify_fallbacks": rep_stats.fallback_count,
        "native_ops": dict(rep_stats.native_repr_ops),
    }


def bench_logreg(name, X_rep, y, iters, repeats):
    """DSL logistic GD: native-representation loop vs materialize+dense."""
    n, d = X_rep.shape
    y_col = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    workload = f"logreg_gd/{name}"
    measured = _rep_vs_dense(
        workload,
        X_rep,
        lambda X: logreg_gd(X, y, max_iter=iters, tol=0.0),
        lambda rep, dense: np.max(np.abs(rep.weights - dense.weights)),
        _logreg_grad_plan(n, d),
        lambda dense: {"w": np.zeros((d, 1)), "y": y_col},
        repeats,
    )
    return {
        "workload": workload,
        "n_rows": n,
        "n_cols": d,
        "iterations": iters,
        "max_weight_error": measured.pop("parity_error"),
        **measured,
    }


def bench_kmeans(name, X_rep, k, iters, repeats):
    """DSL k-means: native-representation loop vs materialize+dense."""
    n, d = X_rep.shape
    workload = f"kmeans/{name}"
    measured = _rep_vs_dense(
        workload,
        X_rep,
        lambda X: kmeans_dsl(X, k, max_iter=iters, tol=0.0, seed=5),
        lambda rep, dense: abs(rep.inertia - dense.inertia)
        / max(abs(dense.inertia), 1.0),
        _kmeans_dist_plan(n, d, k),
        lambda dense: {"C": dense.centers},
        repeats,
    )
    return {
        "workload": workload,
        "n_rows": n,
        "n_cols": d,
        "clusters": k,
        "iterations": iters,
        "inertia_rel_error": measured.pop("parity_error"),
        **measured,
    }


# ----------------------------------------------------------------------
# Inputs: one per compact-representation regime
# ----------------------------------------------------------------------
def make_inputs(quick: bool):
    rng = np.random.default_rng(2017)
    if quick:
        n_cla, d_cla = 12_000, 12
        n_csr, d_csr = 20_000, 40
        n_r, tuple_ratio, d_s, d_r = 800, 25, 4, 100
        n_km, d_km = 6_000, 10
    else:
        n_cla, d_cla = 60_000, 16
        n_csr, d_csr = 60_000, 60
        n_r, tuple_ratio, d_s, d_r = 1_000, 40, 4, 150
        n_km, d_km = 20_000, 12

    X_lowcard = make_low_cardinality_matrix(n_cla, d_cla, cardinality=8, seed=1)
    y_cla = rng.integers(0, 2, size=n_cla).astype(np.float64)

    X_sparse = make_sparse_matrix(n_csr, d_csr, density=0.01, seed=2)
    y_csr = rng.integers(0, 2, size=n_csr).astype(np.float64)

    star = make_star_schema(
        n_s=n_r * tuple_ratio, n_r=n_r, d_s=d_s, d_r=d_r,
        task="classification", seed=3,
    )
    nm = NormalizedMatrix(star.S, [star.fk], [star.R])

    X_km = make_low_cardinality_matrix(n_km, d_km, cardinality=6, seed=4)

    return {
        "cla": (CompressedMatrix.compress(X_lowcard), y_cla),
        "csr": (CSRMatrix.from_dense(X_sparse), y_csr),
        "factorized": (nm, np.asarray(star.y, dtype=np.float64)),
        "kmeans_cla": CompressedMatrix.compress(X_km),
        "kmeans_factorized": nm,
        "tuple_ratio": tuple_ratio,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, repeats: int) -> dict:
    inputs = make_inputs(quick)
    iters = 5 if quick else 10
    km_iters = 4 if quick else 8
    k = 4 if quick else 6

    results = []
    for name in ("cla", "csr", "factorized"):
        X_rep, y = inputs[name]
        results.append(bench_logreg(name, X_rep, y, iters, repeats))
    results.append(
        bench_kmeans("cla", inputs["kmeans_cla"], k, km_iters, repeats)
    )
    results.append(
        bench_kmeans(
            "factorized", inputs["kmeans_factorized"], k, km_iters, repeats
        )
    )

    # Acceptance: some compact operand must also win on wall-clock.
    best = max(e["end_to_end_speedup"] for e in results)
    assert best >= 1.5, f"no config reached 1.5x (best {best:.2f}x)"

    return {
        "meta": {
            **harness.bench_metadata("E19"),
            "quick": quick,
            "star_tuple_ratio": inputs["tuple_ratio"],
        },
        "results": results,
    }


def report(results: dict) -> None:
    meta = results["meta"]
    print(
        f"E19 — representation-aware execution "
        f"(cpus={meta['cpu_count']}, tuple_ratio={meta['star_tuple_ratio']})"
    )
    print(
        f"\n{'workload':<22} {'loop':>7} {'e2e':>7} "
        f"{'rep peak':>12} {'dense peak':>12} {'fallbacks':>9}"
    )
    for e in results["results"]:
        print(
            f"{e['workload']:<22} {e['loop_speedup']:>6.2f}x "
            f"{e['end_to_end_speedup']:>6.2f}x "
            f"{e['rep_peak_bytes']:>11,}B {e['dense_peak_bytes']:>11,}B "
            f"{e['densify_fallbacks']:>9}"
        )


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__, quick_repeats=1))
