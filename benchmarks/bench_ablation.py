"""E14 — Compiler-pass ablation.

Each optimizer pass is disabled in isolation against the full pipeline
on the GLM-gradient program, attributing the end-to-end win to its
parts (the ablation DESIGN.md calls out).
"""

import numpy as np

import harness
from repro.compiler import compile_expr
from repro.lang import matrix
from repro.runtime import execute

FLAG_SETS = {
    "all on": {},
    "no rewrites": {"rewrites": False},
    "no mmchain": {"mmchain": False},
    "no fusion": {"fusion": False},
    "no cse": {"cse": False},
    "all off": {"rewrites": False, "mmchain": False,
                "fusion": False, "cse": False},
}


def run() -> dict:
    n, d = 4000, 200
    rng = np.random.default_rng(61)
    bindings = {
        "X": rng.standard_normal((n, d)),
        "w": rng.standard_normal(d),
        "y": rng.standard_normal(n),
    }

    def program():
        X = matrix("X", (n, d))
        w = matrix("w", (d, 1))
        y = matrix("y", (n, 1))
        return (X.T @ X @ w - X.T @ y) / n

    reference = execute(compile_expr(program(), **FLAG_SETS["all off"]), bindings)
    rows = []
    for name, flags in FLAG_SETS.items():
        plan = compile_expr(program(), **flags)
        timing = harness.timed(lambda: execute(plan, bindings))
        assert np.allclose(timing.result, reference, rtol=1e-8), name
        rows.append(
            {
                "variant": name,
                **timing.fields("seconds"),
                "flops": plan.cost_after.flops,
            }
        )
    # the full pipeline is never worse than any ablation (cost model)
    full = rows[0]["flops"]
    assert all(full <= r["flops"] * 1.001 for r in rows[1:]), rows
    return {"rows": rows}


def report(results: dict) -> None:
    print(f"{'variant':<14} {'time (s)':>9} {'flops':>14}")
    for r in results["rows"]:
        print(f"{r['variant']:<14} {r['seconds']:>9.4f} {r['flops']:>14,}")
