"""E5 — Operator fusion (SystemML fused operators).

Surveyed claim: fused kernels avoid materializing large intermediates,
reducing both memory traffic and allocation cost.
"""

import numpy as np

import harness
from repro.compiler import compile_expr, estimate, fused_kinds
from repro.lang import matrix, sumall
from repro.runtime import execute


def run() -> dict:
    rng = np.random.default_rng(23)
    n, d = 20_000, 100
    bindings = {
        "X": rng.standard_normal((n, d)),
        "Y": rng.standard_normal((n, d)),
    }
    X = matrix("X", (n, d))
    Y = matrix("Y", (n, d))
    #: pattern -> (program, fused operator the compiler must emit)
    programs = {
        "sum((X - Y)^2)": (sumall((X - Y) ** 2), "diff_sq_sum"),
        "sum(X * Y)": (sumall(X * Y), "dot_sum"),
        "t(X) %*% X": (X.T @ X, "tsmm"),
    }
    rows = []
    for name, (expr, kind) in programs.items():
        unfused = compile_expr(expr, fusion=False, rewrites=False, cse=False)
        fused = compile_expr(expr)
        assert kind in fused_kinds(fused.root), (name, fused_kinds(fused.root))
        t_unf = harness.timed(lambda: execute(unfused, bindings))
        t_fus = harness.timed(lambda: execute(fused, bindings))
        assert np.allclose(
            np.asarray(t_unf.result), np.asarray(t_fus.result), rtol=1e-8
        )
        rows.append(
            {
                "pattern": name,
                **t_unf.fields("unfused_s"),
                **t_fus.fields("fused_s"),
                "unfused_intermediate_bytes": estimate(
                    unfused.root
                ).intermediate_bytes,
                "fused_intermediate_bytes": estimate(fused.root).intermediate_bytes,
            }
        )
    # Unfused sum((X - Y)^2) materializes two n x d intermediates; fused none.
    sq = rows[0]
    assert sq["unfused_intermediate_bytes"] > 2 * n * d * 8, sq
    assert sq["fused_intermediate_bytes"] < 1000, sq
    return {"rows": rows}


def report(results: dict) -> None:
    print(f"{'pattern':<16} {'unfused (s)':>12} {'fused (s)':>10} "
          f"{'interm. unfused':>16} {'fused':>8}")
    for r in results["rows"]:
        print(
            f"{r['pattern']:<16} {r['unfused_s']:>12.4f} {r['fused_s']:>10.4f} "
            f"{r['unfused_intermediate_bytes']:>15,}B "
            f"{r['fused_intermediate_bytes']:>7,}B"
        )
