"""E4 — Algebraic rewrites and matrix-chain optimization (SystemML).

Surveyed claim: static rewrites (trace elimination, scalar pull-out) and
mmchain re-association give order-of-magnitude runtime/FLOP reductions on
GLM-style programs.
"""

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.compiler import compile_expr
from repro.lang import matrix, trace
from repro.runtime import execute

BAD_CHAIN = "(X t(X)) y  [n x n intermediate]"


def run() -> dict:
    rng = np.random.default_rng(19)
    n, d = 4000, 200
    bindings = {
        "X": rng.standard_normal((n, d)),
        "w": rng.standard_normal(d),
        "y": rng.standard_normal(n),
        "A": rng.standard_normal((600, 800)),
        "B": rng.standard_normal((800, 600)),
    }
    X = matrix("X", (n, d))
    w = matrix("w", (d, 1))
    y = matrix("y", (n, 1))
    A = matrix("A", (600, 800))
    B = matrix("B", (800, 600))
    # Note: @ is left-associative, so "X.T @ X @ w" is the naively-written
    # (t(X) %*% X) %*% w — quadratic in d unless the chain is re-associated.
    programs = {
        "gradient (t(X) X) w - t(X) y": (X.T @ X @ w - X.T @ y) / n,
        "trace(A %*% B)": trace(A @ B),
        BAD_CHAIN: X @ X.T @ y,
    }
    rows = []
    for name, expr in programs.items():
        naive_plan = compile_expr(
            expr, rewrites=False, mmchain=False, fusion=False, cse=False
        )
        opt_plan = compile_expr(expr)
        naive = harness.timed(lambda: execute(naive_plan, bindings))
        opt = harness.timed(lambda: execute(opt_plan, bindings))
        assert np.allclose(
            np.asarray(naive.result), np.asarray(opt.result), rtol=1e-8
        )
        rows.append(
            {
                "program": name,
                **naive.fields("naive_s"),
                **opt.fields("optimized_s"),
                "speedup": naive.best / opt.best,
                "flops_before": opt_plan.cost_before.flops,
                "flops_after": opt_plan.cost_after.flops,
            }
        )
    chain = next(r for r in rows if r["program"] == BAD_CHAIN)
    assert chain["flops_before"] / chain["flops_after"] > 50, chain
    return {"rows": rows}


def report(results: dict) -> None:
    print(f"{'program':<32} {'naive (s)':>10} {'opt (s)':>9} {'speedup':>8} "
          f"{'flops before':>13} {'after':>12}")
    for r in results["rows"]:
        print(
            f"{r['program']:<32} {r['naive_s']:>10.4f} {r['optimized_s']:>9.4f} "
            f"{r['speedup']:>7.1f}x {r['flops_before']:>13,} "
            f"{r['flops_after']:>12,}"
        )
