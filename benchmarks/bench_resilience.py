#!/usr/bin/env python3
"""E21 — Fault-tolerant execution: chaos completion rate and overhead.

Runs the resilient runtime under deterministic fault injection and
measures three things the resilience layer promises:

1. **Chaos parity** — DSL logistic regression and k-means run at 0%, 5%,
   and 20% injected fault rates on their iteration sites (plus a BSP
   cluster gradient with faulted worker RPCs and a killed worker). With
   a seeded :class:`~repro.resilience.RetryPolicy`, every run completes
   and its result is **bit-identical** to the fault-free run — recovery
   is re-execution of deterministic steps, so faults cost time, never
   answers.
2. **Kill and resume** — an iterative job checkpointed and killed at
   iteration k resumes from the newest valid checkpoint and ends with
   the bit-identical final model; a corrupted blockstore page is
   detected by its CRC32 and repaired from lineage.
3. **Overhead bound** (E20-style) — the fault-point
   instrumentation with **no chaos installed** is one global load and an
   ``is None`` test. The benchmark counts the exact number of fault-point
   crossings of the workload (via a rate-0 match-everything plan),
   microbenchmarks the disabled-path unit cost, and asserts
   ``crossings * unit_cost < 3%`` of the uninstrumented wall time. Event
   counts are exact, so this gates in CI without wall-clock flakiness.

Usage::

    python benchmarks/bench_resilience.py            # full sizes
    python benchmarks/bench_resilience.py --quick    # CI smoke run
"""

from __future__ import annotations

import tempfile

import numpy as np

import harness
from repro.algorithms import kmeans_dsl, logreg_gd
from repro.distributed import SimulatedCluster
from repro.ml.losses import LogisticLoss
from repro.resilience import (
    ChaosContext,
    FaultPlan,
    IterativeCheckpointer,
    RetryPolicy,
    chaos_seed_from_env,
)
from repro.runtime.bufferpool import BlockStore, BufferPool
from repro.runtime.blocks import BlockedMatrix

FAULT_RATES = (0.0, 0.05, 0.2)


def _make_data(n: int, d: int, seed: int = 2017):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = (X @ w_true + 0.1 * rng.normal(size=n) > 0).astype(np.float64)
    return X, y


def _retry_policy() -> RetryPolicy:
    # backoff_base=0: retries are immediate, so the benchmark times
    # recovery work, not configured sleeps.
    return RetryPolicy(
        max_attempts=8, backoff_base=0.0, seed=chaos_seed_from_env()
    )


# ----------------------------------------------------------------------
# Leg 1: chaos parity at swept fault rates
# ----------------------------------------------------------------------
def chaos_leg(X, y, rate: float, iters: int, km_iters: int) -> list[dict]:
    """logreg + kmeans + BSP gradient under one injected fault rate."""
    seed = chaos_seed_from_env()
    baseline_lr = logreg_gd(X, y, max_iter=iters, tol=0.0)
    baseline_km = kmeans_dsl(X, 3, max_iter=km_iters, tol=0.0, seed=5)
    loss = LogisticLoss()
    cluster0 = SimulatedCluster(X, y, num_workers=4)
    baseline_grad = cluster0.global_gradient(loss, np.zeros(X.shape[1]))

    plan = (
        FaultPlan(seed=seed)
        .inject("glm.logreg_gd.step", rate=rate)
        .inject("clustering.kmeans_dsl.step", rate=rate)
        .inject("cluster.worker", rate=rate)
    )
    policy = _retry_policy()
    entries = []
    with ChaosContext(plan) as chaos:
        t_lr = harness.timed(
            lambda: logreg_gd(X, y, max_iter=iters, tol=0.0, retry=policy),
            repeats=1,
        )
        t_km = harness.timed(
            lambda: kmeans_dsl(
                X, 3, max_iter=km_iters, tol=0.0, seed=5, retry=policy
            ),
            repeats=1,
        )
        cluster = SimulatedCluster(X, y, num_workers=4)
        if rate > 0:
            cluster.kill_worker(1)
        t_cl = harness.timed(
            lambda: cluster.global_gradient(loss, np.zeros(X.shape[1])),
            repeats=1,
        )
    chaotic_lr, chaotic_km, chaotic_grad = t_lr.result, t_km.result, t_cl.result
    entries.append(
        {
            "workload": "logreg_gd",
            "fault_rate": rate,
            "completed": True,
            "identical": bool(
                np.array_equal(baseline_lr.weights, chaotic_lr.weights)
            ),
            "faults_injected": chaos.injected_at("glm.logreg_gd.step"),
            **t_lr.fields("wall_s"),
        }
    )
    entries.append(
        {
            "workload": "kmeans_dsl",
            "fault_rate": rate,
            "completed": True,
            "identical": bool(
                np.array_equal(baseline_km.centers, chaotic_km.centers)
                and np.array_equal(baseline_km.labels, chaotic_km.labels)
            ),
            "faults_injected": chaos.injected_at("clustering.kmeans_dsl.step"),
            **t_km.fields("wall_s"),
        }
    )
    entries.append(
        {
            "workload": "cluster.bsp_gradient",
            "fault_rate": rate,
            "killed_workers": 1 if rate > 0 else 0,
            "completed": True,
            "identical": bool(np.array_equal(baseline_grad, chaotic_grad)),
            "faults_injected": chaos.injected_at("cluster.worker"),
            "lineage_recoveries": cluster.comm.lineage_recoveries,
            **t_cl.fields("wall_s"),
        }
    )
    return entries


# ----------------------------------------------------------------------
# Leg 2: kill/resume and corruption repair
# ----------------------------------------------------------------------
def kill_resume_leg(X, y, iters: int) -> list[dict]:
    baseline = logreg_gd(X, y, max_iter=iters, tol=0.0)
    kill_at = max(2, iters // 2)
    with tempfile.TemporaryDirectory() as tmp:
        ck = IterativeCheckpointer(tmp, name="e21-logreg", interval=1)
        # "Kill" at iteration kill_at: run the same job capped there.
        logreg_gd(X, y, max_iter=kill_at, tol=0.0, checkpointer=ck)
        resumed = logreg_gd(X, y, max_iter=iters, tol=0.0, checkpointer=ck)
        resumed_from = max(ck.steps())
    logreg_identical = bool(
        np.array_equal(baseline.weights, resumed.weights)
        and baseline.objective_history == resumed.objective_history
    )

    store = BlockStore()
    blocked = BlockedMatrix.from_array(X, store, "e21", block_rows=64)
    store.corrupt(blocked.block_id(1))
    repaired = blocked.to_array(BufferPool(store, X.nbytes * 2 + 1))
    return [
        {
            "workload": "kill_resume/logreg_gd",
            "killed_at_iteration": kill_at,
            "resumed_from": resumed_from,
            "total_iterations": iters,
            "identical": logreg_identical,
            "completed": True,
        },
        {
            "workload": "blockstore/corruption_repair",
            "corruptions_detected": store.corruptions_detected,
            "corruptions_repaired": store.corruptions_repaired,
            "identical": bool(np.array_equal(repaired, X)),
            "completed": True,
        },
    ]


# ----------------------------------------------------------------------
# Leg 3: disabled-path overhead bound
# ----------------------------------------------------------------------
def overhead_leg(X, y, iters: int, repeats: int) -> dict:
    policy = _retry_policy()
    return harness.overhead_leg(
        "e21.unit",
        lambda: logreg_gd(X, y, max_iter=iters, tol=0.0, retry=policy),
        "logreg_gd (instrumented, no chaos)",
        repeats,
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, repeats: int) -> dict:
    if quick:
        n, d, iters, km_iters = 2_000, 8, 12, 8
    else:
        n, d, iters, km_iters = 10_000, 12, 25, 15
    X, y = _make_data(n, d)

    results = []
    for rate in FAULT_RATES:
        results.extend(chaos_leg(X, y, rate, iters, km_iters))
    results.extend(kill_resume_leg(X, y, iters))
    overhead = overhead_leg(X, y, iters, repeats)

    chaos_entries = [e for e in results if "fault_rate" in e]
    completed = sum(e["completed"] for e in results)
    completion_rate = completed / len(results)
    identical_all = all(e["identical"] for e in results)
    faults_total = sum(e.get("faults_injected", 0) for e in results)

    for e in results:  # completion rate 1.0, every run bit-identical
        rate = f" @ {e['fault_rate']:.0%}" if "fault_rate" in e else ""
        assert e["completed"] and e["identical"], (
            f"{e['workload']}{rate}: completed and identical to fault-free"
        )
    # Nonzero rates must actually have injected something, or the sweep
    # proves nothing.
    assert any(
        e["faults_injected"] > 0
        for e in chaos_entries
        if e["fault_rate"] >= 0.2
    ), "chaos sweep: faults actually injected at the 20% rate"

    return {
        "meta": {
            **harness.bench_metadata("E21"),
            "quick": quick,
            "chaos_seed": chaos_seed_from_env(),
            "fault_rates": list(FAULT_RATES),
        },
        "results": results,
        "overhead": overhead,
        "summary": {
            "completion_rate": completion_rate,
            "identical_all": identical_all,
            "faults_injected_total": faults_total,
            "disabled_overhead_pct": overhead["estimated_overhead_pct"],
        },
    }


def report(results: dict) -> None:
    meta = results["meta"]
    print(
        f"E21 — fault-tolerant execution "
        f"(cpus={meta['cpu_count']}, chaos_seed={meta['chaos_seed']})"
    )
    print(
        f"\n{'workload':<32} {'rate':>6} {'faults':>7} "
        f"{'identical':>9} {'wall':>9}"
    )
    for e in results["results"]:
        rate = f"{e['fault_rate']:.0%}" if "fault_rate" in e else "-"
        wall = f"{e['wall_s'] * 1e3:7.1f}ms" if "wall_s" in e else "-"
        print(
            f"{e['workload']:<32} {rate:>6} "
            f"{e.get('faults_injected', '-'):>7} "
            f"{str(e['identical']):>9} {wall:>9}"
        )
    s = results["summary"]
    print(
        f"\n  completion rate: {s['completion_rate']:.0%}   "
        f"faults injected: {s['faults_injected_total']}"
    )
    harness.report_overhead_leg(results["overhead"])


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__))
