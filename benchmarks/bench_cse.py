"""E12 — Common-subexpression elimination and constant folding.

Surveyed claim: programs with repeated subexpressions (typical of
hand-derived gradients) execute each distinct operator once under CSE,
cutting executed-operator counts and runtime.
"""

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.compiler import compile_expr, count_tree_ops, count_unique_ops
from repro.lang import matrix, sumall
from repro.runtime import execute


def run() -> dict:
    rng = np.random.default_rng(53)
    n, d = 8_000, 120
    bindings = {
        "X": rng.standard_normal((n, d)),
        "w": rng.standard_normal(d),
        "y": rng.standard_normal(n),
    }
    X = matrix("X", (n, d))
    w = matrix("w", (d, 1))
    y = matrix("y", (n, 1))
    # loss + gradient-norm program that repeats X %*% w three times
    program = (
        sumall((X @ w - y) ** 2)
        + sumall((X @ w - y) ** 2)
        + sumall((X @ w) * (X @ w))
    )
    no_cse = compile_expr(
        program, rewrites=False, mmchain=False, fusion=False, cse=False
    )
    with_cse = compile_expr(
        program, rewrites=False, mmchain=False, fusion=False, cse=True
    )
    t_no = harness.timed(lambda: execute(no_cse, bindings))
    t_yes = harness.timed(lambda: execute(with_cse, bindings))
    assert abs(t_no.result - t_yes.result) < 1e-6 * abs(t_no.result)
    tree_ops = count_tree_ops(no_cse.root)
    dag_ops = count_unique_ops(with_cse.root)
    assert dag_ops < tree_ops
    _, stats = execute(with_cse, bindings, collect_stats=True)
    assert stats.op_counts["matmul"] == 1  # X %*% w executed exactly once
    return {
        "variants": [
            {"variant": "tree", "operators": tree_ops, **t_no.fields("seconds")},
            {"variant": "CSE DAG", "operators": dag_ops, **t_yes.fields("seconds")},
        ],
        "speedup": t_no.best / t_yes.best,
    }


def report(results: dict) -> None:
    print(f"{'variant':<12} {'operators':>10} {'time (s)':>9}")
    for v in results["variants"]:
        print(f"{v['variant']:<12} {v['operators']:>10} {v['seconds']:>9.4f}")
    print(f"speedup: {results['speedup']:.2f}x")
