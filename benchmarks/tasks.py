#!/usr/bin/env python3
"""The one table of experiment runs, E1-E27: standard library only.

A row is a DESIGN.md tag, its ``bench_<x>.py`` module, its title and the
``run`` arguments that keep it quick inside ``run_experiments.py``; E18-E27
add the CI ``bench-regression`` leg. ``run_experiments.py`` runs the rows,
``traffic.py`` traces the legs, the tests derive the baselines, and CI's
``plan`` job feeds this script's one line of JSON (the leg matrix; it takes
no arguments) to ``strategy.matrix``::

    python benchmarks/tasks.py
"""

from __future__ import annotations

import json
from typing import NamedTuple


class Leg(NamedTuple):
    """``bench_<x>.py --quick <args>`` under ``REPRO_CHAOS_SEED`` (unset
    when ""; "7" where the baseline was captured under seed 7, as a fault
    count gates exactly only under the baseline's seed), then
    ``check_regression.py`` against ``baseline`` if any."""

    args: str = ""
    chaos_seed: str = ""
    baseline: str = ""


class Task(NamedTuple):
    tag: str
    module: str
    title: str
    kwargs: dict = {}  # never mutated: it is only ever passed as **kwargs
    leg: Leg | None = None


_QUICK = {"quick": True, "repeats": 2}

TASKS: dict[str, Task] = {task.tag: task for task in (
    Task("E1", "bench_factorized",
         "Factorized vs materialized linear regression (Orion/Morpheus)"),
    Task("E2", "bench_hamlet", "Join avoidance accuracy vs tuple ratio (Hamlet)"),
    Task("E3", "bench_compression", "Compression ratios and kernel times (CLA)"),
    Task("E4", "bench_rewrites", "Algebraic rewrites + mmchain (SystemML compiler)"),
    Task("E5", "bench_fusion", "Operator fusion: runtime and intermediate memory"),
    Task("E6", "bench_indb",
         "In-DB IGD vs BGD vs linregr: epochs-to-loss (Bismarck)"),
    Task("E7", "bench_selection", "Successive halving vs full grid (MSMS/TuPAQ)"),
    Task("E8", "bench_columbus",
         "Feature-subset exploration: statistics reuse (Columbus)"),
    Task("E9", "bench_bufferpool",
         "Buffer pool: hit ratio vs pool size over 5 epochs"),
    Task("E10", "bench_cla_planner", "Sampling-based compression planning accuracy"),
    Task("E11", "bench_warmstart", "Warm vs cold starts on an L2 path"),
    Task("E12", "bench_cse", "CSE: executed operators and runtime"),
    Task("E13", "bench_sparse", "Sparsity exploitation: CSR vs dense by density"),
    Task("E14", "bench_ablation", "Compiler-pass ablation on the GLM gradient"),
    Task("E15", "bench_distributed",
         "Distributed strategies: accuracy vs communication"),
    Task("E16", "bench_algorithms",
         "Declarative algorithm scripts vs library implementations"),
    Task("E17", "bench_foldreuse",
         "CV with shared fold statistics vs per-config refits"),
    Task("E18", "bench_parallel", "Cost-aware parallel execution engine",
         {"quick": True, "threads": [1, 2, 4], "repeats": 1},
         Leg("--threads 1,2", baseline="BENCH_parallel_quick.json")),
    Task("E19", "bench_repr_exec",
         "Representation-aware execution of DSL iteration loops",
         {"quick": True, "repeats": 1}, Leg(baseline="BENCH_repr_exec_quick.json")),
    # every leg asserts its own capture inside the bench (E20's overhead
    # bound too); E20 has nothing to compare across captures, so no baseline
    Task("E20", "bench_obs_overhead",
         "Observability overhead: disabled-path bound on E19 quick", _QUICK, Leg()),
    Task("E21", "bench_resilience",
         "Fault-tolerant execution: chaos completion and overhead", _QUICK,
         Leg(chaos_seed="7", baseline="BENCH_resilience_quick.json")),
    Task("E22", "bench_serving",
         "Online serving: micro-batching, cache, canary split", _QUICK,
         Leg(baseline="BENCH_serving_quick.json")),
    Task("E23", "bench_feedback",
         "Adaptive re-optimization: observed costs correct the plan", _QUICK,
         Leg(baseline="BENCH_feedback_quick.json")),
    Task("E24", "bench_reuse",
         "Lineage-aware materialization: cross-workload reuse", _QUICK,
         Leg(baseline="BENCH_reuse_quick.json")),
    Task("E25", "bench_incremental",
         "Incremental maintenance: delta refresh, chaos, hot-swap", _QUICK,
         Leg(chaos_seed="7", baseline="BENCH_incremental_quick.json")),
    # the fabric chaos sweep seeds itself (default 7, matching the
    # committed baseline), so the environment stays clean here
    Task("E26", "bench_sharding",
         "Sharded serving fabric: failover, quotas, scaling", _QUICK,
         Leg(baseline="BENCH_sharding_quick.json")),
    Task("E27", "bench_features",
         "Feature store: online/offline parity, drift-gated rollout", _QUICK,
         Leg(chaos_seed="7", baseline="BENCH_features_quick.json")),
)}

if __name__ == "__main__":
    print(json.dumps({"experiment": [
        {"id": t.tag, "bench": f"{t.module}.py", "args": t.leg.args,
         "baseline": t.leg.baseline, "chaos-seed": t.leg.chaos_seed}
        for t in TASKS.values() if t.leg is not None
    ]}))
