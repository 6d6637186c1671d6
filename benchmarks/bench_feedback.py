#!/usr/bin/env python3
"""E23 — Adaptive re-optimization: observed costs correct the plan.

Adversarial workloads whose compile-time estimates are wrong, run with
and without the feedback loop (:mod:`repro.compiler.feedback`). Four
legs, each asserted in ``run()`` (``check_regression.py`` holds leg 1's
speedup floor, and the replan speedup against the committed baseline):

1. **Representation fallback** — power iteration over
   ``(X * M) @ ((X * M).T @ s)`` with sparse-looking operands. The
   planner picks CSR for both (elementwise ``*`` between two
   representations has no sparse kernel, a blind spot the estimates
   cannot see), so every execute densifies both inputs. The feedback
   run observes the fallbacks, demotes CSR for those inputs, and
   re-plans dense **within 2 iterations**; the corrected run reports
   zero fallbacks afterwards and beats the no-feedback run on measured
   per-iteration wall. Densify is exact, so the final iterate is
   **bit-identical** to the no-feedback run.
2. **Dispatch learning** — a pmap site with fine-grained pure-Python
   tasks whose pool overhead exceeds their compute, forced through an
   explicit 2-worker context. Paired serial/parallel per-task evidence
   (honest under the GIL, where summed task time over wall overcounts)
   drives the site's measured speedup below 1; the dispatcher goes
   serial **within 2 iterations** and results stay identical.
3. **Driver re-planning** — ``logreg_gd`` against a stale persisted
   store claiming the dense design matrix is 1%-dense: iteration 0
   wrongly plans CSR, the first epoch's observations demote it, and the
   driver adopts dense at the iteration-1 boundary (``replans == 1``),
   beating a run pinned to the stale plan. A checkpoint-resume oracle
   asserts bitwise parity across the mid-run switch, and ``kmeans_dsl``
   corrects a stale CSR *binding* at iteration 0 bit-identically.
4. **Disabled-path overhead** — E20's first-principles methodology:
   with feedback off, every touchpoint is one ``active_store()`` call
   returning ``None``; exact event counts x the microbenchmarked unit
   cost must stay **< 3%** of the disabled wall time.

Usage::

    python benchmarks/bench_feedback.py            # full sizes
    python benchmarks/bench_feedback.py --quick    # CI smoke run
"""

from __future__ import annotations

import tempfile

import numpy as np

import harness
from repro import obs
from repro.algorithms.clustering import kmeans_dsl
from repro.algorithms.glm import logreg_gd, replan_operand
from repro.compiler import (
    FeedbackStore,
    compile_expr,
    feedback_scope,
    plan_representations,
)
from repro.compiler.feedback import active_store, input_key
from repro.lang import matrix
from repro.resilience.checkpoint import IterativeCheckpointer
from repro.runtime import execute, repops
from repro.runtime.parallel import ParallelContext
from repro.sparse import CSRMatrix

#: acceptance bounds
MAX_CORRECTION_ITERATIONS = 2
MIN_FALLBACK_SPEEDUP = 1.2   # leg 1, post-correction; gated, not asserted
MIN_REPLAN_SPEEDUP = 1.02    # leg 3, within-capture, vs stale-pinned run

# ----------------------------------------------------------------------
# Leg 1: representation fallback correction
# ----------------------------------------------------------------------
def _fallback_inputs(n: int, d: int, seed: int = 2017):
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((n, d)) < 0.08, rng.normal(size=(n, d)), 0.0)
    M = np.where(rng.random((n, d)) < 0.08, rng.normal(size=(n, d)), 0.0)
    s0 = rng.normal(size=(n, 1))
    return X, M, s0


def _power_iteration(plan, X, M, s0, iters, adaptive):
    """Power iteration with per-iteration re-planning when adaptive."""
    store = FeedbackStore() if adaptive else None
    operands = {"X": X, "M": M}
    plan_history: list[str] = []
    with feedback_scope(store):
        planned = plan_representations(
            plan,
            {**operands, "s": s0},
            feedback=store if adaptive else False,
        )
        for name in ("X", "M"):
            operands[name] = repops.convert_value(
                operands[name], planned.repr_plan.choices[name].representation
            )
        initial = {
            name: planned.repr_plan.choices[name].representation
            for name in ("X", "M")
        }
        s = s0
        walls, fallbacks = [], []
        corrected_at = None
        for it in range(1, iters + 1):
            step = harness.timed(
                lambda: execute(plan, {**operands, "s": s}, collect_stats=True),
                repeats=1,
            )
            out, stats = step.result
            walls.append(step.best)
            fallbacks.append(int(sum(stats.fallback_kinds.values())))
            s = out / np.linalg.norm(out)
            if adaptive and corrected_at is None:
                switched = False
                for name in ("X", "M"):
                    switched |= replan_operand(
                        plan, operands, name, {**operands, "s": s},
                        store, it, plan_history,
                    )
                if switched:
                    corrected_at = it
    return {
        "s": s,
        "walls": walls,
        "fallbacks": fallbacks,
        "corrected_at": corrected_at,
        "initial_plan": initial,
        "plan_history": plan_history,
    }


def fallback_leg(n: int, d: int, iters: int, repeats: int) -> dict:
    X, M, s0 = _fallback_inputs(n, d)
    Xm = matrix("X", (n, d))
    Mm = matrix("M", (n, d))
    sm = matrix("s", (n, 1))
    plan = compile_expr((Xm * Mm) @ ((Xm * Mm).T @ sm))

    base = ad = None
    for _ in range(repeats):
        base_run = _power_iteration(plan, X, M, s0, iters, adaptive=False)
        ad_run = _power_iteration(plan, X, M, s0, iters, adaptive=True)
        if base is None or min(base_run["walls"]) < min(base["walls"]):
            base = base_run
        if ad is None or min(ad_run["walls"]) < min(ad["walls"]):
            ad = ad_run

    corrected_at = ad["corrected_at"]
    post = corrected_at if corrected_at is not None else iters
    speedup = (
        min(base["walls"][post:]) / min(ad["walls"][post:])
        if post < iters
        else float("nan")
    )
    return {
        "workload": "fallback/power_iteration",
        "n_rows": n,
        "n_cols": d,
        "iterations": iters,
        "initial_plan": ad["initial_plan"],
        "initially_misplanned": all(
            kind == "csr" for kind in ad["initial_plan"].values()
        ),
        "corrected_at_iteration": corrected_at,
        "plan_history": ad["plan_history"],
        "fallbacks_per_iteration": ad["fallbacks"],
        "fallbacks_after_correction": int(sum(ad["fallbacks"][post:])),
        "baseline_fallbacks_total": int(sum(base["fallbacks"])),
        "bit_identical": bool(np.array_equal(base["s"], ad["s"])),
        "post_correction_speedup": speedup,
        "baseline_iter_wall_s": min(base["walls"][post:]),
        "adaptive_iter_wall_s": min(ad["walls"][post:]),
    }


# ----------------------------------------------------------------------
# Leg 2: dispatch learning at a losing pmap site
# ----------------------------------------------------------------------
def _fine_grained_task(seed: int) -> int:
    acc = 0
    for i in range(300):
        acc = (acc * 1103515245 + seed + i) % (2**31)
    return acc


def dispatch_leg(n_tasks: int, iters: int) -> dict:
    """The dispatcher must learn that fine-grained tasks lose to pool
    overhead at 2 workers. The calibration pmap (a cheap cost hint that
    gates serially) supplies the serial side of the paired evidence —
    in production the static cost gate produces it for free."""
    site = "e23.fine_grained"
    tasks = list(range(n_tasks))

    def run(adaptive):
        store = FeedbackStore() if adaptive else None
        ctx = ParallelContext(max_workers=2, cost_threshold=50_000.0)
        decisions, walls, results = [], [], []
        try:
            with feedback_scope(store):
                for _ in range(iters):
                    ctx.pmap(
                        _fine_grained_task, tasks, cost_hint=100.0, site=site
                    )
                    before = ctx.stats.by_site[site].parallel_calls
                    step = harness.timed(
                        lambda: ctx.pmap(
                            _fine_grained_task, tasks,
                            cost_hint=1e9, site=site,
                        ),
                        repeats=1,
                    )
                    results.append(step.result)
                    walls.append(step.best)
                    went_parallel = (
                        ctx.stats.by_site[site].parallel_calls > before
                    )
                    decisions.append(
                        "parallel" if went_parallel else "serial"
                    )
                site_stats = ctx.stats.as_dict()["by_site"][site]
        finally:
            ctx.shutdown()
        return decisions, walls, results, site_stats, store

    base_decisions, base_walls, base_results, base_site, _ = run(False)
    ad_decisions, ad_walls, ad_results, ad_site, store = run(True)
    corrected_at = next(
        (i + 1 for i, d in enumerate(ad_decisions) if d == "serial"), None
    )
    policy = store.site_policy(site)
    post = corrected_at if corrected_at is not None else iters
    return {
        "workload": "dispatch/fine_grained",
        "site": site,
        "tasks": n_tasks,
        "iterations": iters,
        "workers": 2,
        "baseline_decisions": base_decisions,
        "adaptive_decisions": ad_decisions,
        "corrected_at_iteration": corrected_at,
        "learned_speedup": policy.speedup if policy else None,
        "learned_action": policy.action if policy else None,
        "results_identical": base_results == ad_results,
        "post_correction_speedup": (
            min(base_walls[post:]) / min(ad_walls[post:])
            if post < iters
            else float("nan")
        ),
        "site_decisions": ad_site["decisions"],
        "site_realized_speedup": ad_site["realized_speedup"],
    }


# ----------------------------------------------------------------------
# Leg 3: driver re-planning against a stale store
# ----------------------------------------------------------------------
def _stale_store(n: int, d: int) -> FeedbackStore:
    """A persisted model claiming the dense design matrix is 1%-dense."""
    store = FeedbackStore()
    for _ in range(3):
        store.observe_input(input_key("X", (n, d)), "dense", density=0.01)
    return store


def replan_leg(
    n: int, d: int, iters: int, repeats: int, checkpoint_dir
) -> dict:
    rng = np.random.default_rng(2017)
    X = rng.normal(size=(n, d))
    y = (X @ rng.normal(size=d) > 0).astype(float)
    X_csr = CSRMatrix.from_dense(X)

    dense = harness.timed(
        lambda: logreg_gd(X, y, max_iter=iters, tol=0), repeats
    )
    pinned = harness.timed(
        lambda: logreg_gd(X_csr, y, max_iter=iters, tol=0), repeats
    )
    adaptive = harness.timed(
        lambda: logreg_gd(
            X, y, max_iter=iters, tol=0, adaptive=_stale_store(n, d)
        ),
        repeats,
    )
    res_dense, res_adaptive = dense.result, adaptive.result
    parity = float(np.max(np.abs(res_adaptive.weights - res_dense.weights)))

    # Checkpoint-resume oracle: a plain dense run resumed from the
    # adaptive run's checkpoints must finish bit-identically — the
    # mid-run representation switch left no numerical trace.
    ck = IterativeCheckpointer(checkpoint_dir, interval=1)
    oracle_adaptive = logreg_gd(
        X, y, max_iter=iters, tol=0, checkpointer=ck,
        adaptive=_stale_store(n, d),
    )
    resumed = logreg_gd(
        X, y, max_iter=iters, tol=0,
        checkpointer=IterativeCheckpointer(checkpoint_dir, interval=1),
    )
    resume_identical = bool(
        np.array_equal(oracle_adaptive.weights, resumed.weights)
    )

    # kmeans corrects a stale CSR binding of dense data at iteration 0.
    km_dense = kmeans_dsl(X, 5, max_iter=8, seed=11)
    km_adaptive = kmeans_dsl(
        X_csr, 5, max_iter=8, seed=11, adaptive=FeedbackStore()
    )
    return {
        "workload": "replan/stale_store",
        "n_rows": n,
        "n_cols": d,
        "iterations": iters,
        "replans": res_adaptive.replans,
        "plan_history": res_adaptive.plan_history,
        "weight_parity": parity,
        "resume_bit_identical": resume_identical,
        "kmeans_plan_history": km_adaptive.plan_history,
        "kmeans_bit_identical": bool(
            np.array_equal(km_adaptive.centers, km_dense.centers)
        ),
        **dense.fields("wall_dense_s"),
        **pinned.fields("wall_stale_pinned_s"),
        **adaptive.fields("wall_adaptive_s"),
        "adaptive_vs_pinned_speedup": pinned.best / adaptive.best,
    }


# ----------------------------------------------------------------------
# Leg 4: disabled-path overhead (E20 methodology)
# ----------------------------------------------------------------------
def overhead_leg(n: int, d: int, iters: int, repeats: int) -> dict:
    """With feedback off, each touchpoint costs one ``active_store()``
    call that returns ``None`` — in the executor (per execute) and the
    parallel engine (per dispatch). Exact event counts x the
    microbenchmarked unit cost bound the overhead without wall-clock
    flakiness."""
    rng = np.random.default_rng(2017)
    X = rng.normal(size=(n, d))
    y = (X @ rng.normal(size=d) > 0).astype(float)
    workload = lambda: logreg_gd(X, y, max_iter=iters, tol=0)  # noqa: E731

    # Unit cost of the disabled gate.
    gate_cost = harness.unit_cost(active_store)

    # Exact event counts from one instrumented run.
    obs.reset()
    workload()
    registry = obs.get_registry()
    executions = int(registry.value("executor.executions"))
    op_events = int(registry.value("executor.ops"))
    dispatches = int(registry.value("parallel.calls"))
    obs.reset()

    # Gate checks: one per execute (executor) + one per pmap dispatch
    # (observe) + one per gated site decision (<= dispatches again).
    gate_calls = executions + 2 * dispatches
    wall_disabled = harness.timed(workload, repeats)
    bound_s, overhead_pct = harness.disabled_overhead(
        "overhead/disabled_path", wall_disabled, [(gate_calls, gate_cost)]
    )
    return {
        "workload": "overhead/disabled_path",
        "gate_call_s": gate_cost,
        "executions": executions,
        "op_events": op_events,
        "parallel_dispatches": dispatches,
        **wall_disabled.fields("wall_disabled_s"),
        "estimated_overhead_s": bound_s,
        "estimated_overhead_pct": overhead_pct,
        "bound_pct": 100.0 * harness.MAX_DISABLED_OVERHEAD,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, repeats: int) -> dict:
    if quick:
        fb_n, fb_d, fb_iters = 1500, 96, 6
        dp_tasks, dp_iters = 64, 4
        rp_n, rp_d, rp_iters = 4000, 24, 16
        ov_iters = 10
    else:
        fb_n, fb_d, fb_iters = 6000, 192, 8
        dp_tasks, dp_iters = 128, 5
        rp_n, rp_d, rp_iters = 20000, 32, 24
        ov_iters = 25

    results = [fallback_leg(fb_n, fb_d, fb_iters, repeats)]
    results.append(dispatch_leg(dp_tasks, dp_iters))
    with tempfile.TemporaryDirectory() as tmp:
        results.append(
            replan_leg(rp_n, rp_d, rp_iters, repeats, tmp)
        )
    results.append(overhead_leg(rp_n, rp_d, ov_iters, repeats))

    fallback, dispatch, replan, overhead = results
    for leg in (fallback, dispatch):
        at = leg["corrected_at_iteration"]
        assert at is not None and at <= MAX_CORRECTION_ITERATIONS, (
            f"{leg['workload']}: corrected at iteration {at}, within the "
            f"correction budget {MAX_CORRECTION_ITERATIONS}"
        )
    fb, rp = fallback["workload"], replan["workload"]
    assert fallback["initially_misplanned"], (
        f"{fb}: starts from the wrong (csr) plan, got {fallback['initial_plan']}"
    )
    assert fallback["fallbacks_after_correction"] == 0, (
        f"{fb}: zero densify fallbacks after the correction "
        f"({fallback['fallbacks_per_iteration']})"
    )
    assert fallback["bit_identical"], (
        f"{fb}: corrected run bit-identical to the no-feedback run"
    )
    assert dispatch["learned_action"] == "serial", (
        f"dispatch/fine_grained: losing site learned action "
        f"{dispatch['learned_action']!r} == 'serial'"
    )
    assert dispatch["results_identical"], (
        "dispatch/fine_grained: serial dispatch produced identical results"
    )
    assert replan["replans"] == 1, (
        f"{rp}: stale plan demoted in exactly 1 replan ({replan['plan_history']})"
    )
    assert replan["weight_parity"] <= 1e-9, (
        f"{rp}: adaptive weights parity {replan['weight_parity']:.1e} <= 1e-09"
    )
    assert replan["resume_bit_identical"], (
        f"{rp}: checkpoint-resume oracle bitwise across the mid-run switch"
    )
    assert replan["kmeans_bit_identical"], (
        f"{rp}: kmeans stale-binding correction bit-identical"
    )
    assert replan["adaptive_vs_pinned_speedup"] >= MIN_REPLAN_SPEEDUP, (
        f"{rp}: adaptive vs stale-pinned speedup "
        f"{replan['adaptive_vs_pinned_speedup']:.2f} >= {MIN_REPLAN_SPEEDUP} "
        f"(within-capture bound)"
    )

    return {
        "meta": {
            **harness.bench_metadata("E23"),
            "quick": quick,
            "min_fallback_speedup": MIN_FALLBACK_SPEEDUP,
        },
        "results": results,
        "summary": {
            "fallback_corrected_at": fallback["corrected_at_iteration"],
            "fallback_speedup": fallback["post_correction_speedup"],
            "dispatch_corrected_at": dispatch["corrected_at_iteration"],
            "replan_speedup": replan["adaptive_vs_pinned_speedup"],
            "disabled_overhead_pct": overhead["estimated_overhead_pct"],
        },
    }


def report(results: dict) -> None:
    meta = results["meta"]
    print(
        f"E23 — adaptive re-optimization "
        f"(cpus={meta['cpu_count']}, quick={meta['quick']})"
    )
    fallback, dispatch, replan, overhead = results["results"]
    print(
        f"\n  fallback: planned {fallback['initial_plan']}, corrected at "
        f"iteration {fallback['corrected_at_iteration']} "
        f"(fallbacks/iter {fallback['fallbacks_per_iteration']}), "
        f"post-correction {fallback['post_correction_speedup']:.2f}x, "
        f"bit-identical={fallback['bit_identical']}"
    )
    learned = dispatch["learned_speedup"]
    learned = (
        "no policy learned" if learned is None
        else f"learned speedup {learned:.2f}"
    )
    print(
        f"  dispatch: {' -> '.join(dispatch['adaptive_decisions'])} "
        f"({learned}, "
        f"{dispatch['post_correction_speedup']:.2f}x after correction, "
        f"identical={dispatch['results_identical']})"
    )
    print(
        f"  replan:   {replan['replans']} replan "
        f"({replan['plan_history'][-1]}), "
        f"{replan['adaptive_vs_pinned_speedup']:.2f}x vs stale-pinned, "
        f"parity {replan['weight_parity']:.1e}, "
        f"resume bitwise={replan['resume_bit_identical']}"
    )
    print(
        f"  overhead: {overhead['estimated_overhead_pct']:.3f}% "
        f"(bound {overhead['bound_pct']:.0f}%) over "
        f"{overhead['executions']} executes / {overhead['op_events']} ops"
    )


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__))
