#!/usr/bin/env python3
"""Regenerate every experiment table/series from DESIGN.md.

Usage::

    python benchmarks/run_experiments.py            # all experiments
    python benchmarks/run_experiments.py E1 E3      # a subset
    python benchmarks/run_experiments.py --list     # registry with titles
    python benchmarks/run_experiments.py --report out.json   # + obs reports

Every experiment lives in one ``bench_<x>.py`` module exposing ``run``
(measure, assert, return a dict) and ``report`` (print the table from
that dict). The asserts are every check one run can decide, so running
an experiment here is its within-capture gate; ``check_regression.py``
compares a bench's ``--out`` capture with its committed baseline and
holds one single-run bound only: E23's post-correction floor, which
this runner's order (after E18/E19) would fail. ``EXPERIMENTS`` below maps a DESIGN.md tag to its
module, title and the arguments that keep it quick inside this runner.
Adding an experiment is one module and one row. Each prints the rows
the surveyed system's paper reports (speedup vs. a parameter sweep,
compression ratios per data regime, cost-vs-quality of search
strategies, ...).
EXPERIMENTS.md records a captured run of this script next to the
surveyed papers' claims.

Every experiment runs inside a fresh :mod:`repro.obs` scope (metrics
reset, one ``experiment.<tag>`` root span). ``--report PATH`` writes one
consolidated JSON document — per-experiment span trees (populated when
``REPRO_TRACE=1``) plus the full metrics registry — which is the
artifact CI uploads.
"""

from __future__ import annotations

import argparse
import importlib
import sys

import harness
from repro import obs

_QUICK = {"quick": True, "repeats": 2}

#: tag -> (module, one-line title, arguments of ``run`` inside this runner)
EXPERIMENTS: dict[str, tuple[str, str, dict]] = {
    "E1": ("bench_factorized",
           "Factorized vs materialized linear regression (Orion/Morpheus)", {}),
    "E2": ("bench_hamlet", "Join avoidance accuracy vs tuple ratio (Hamlet)", {}),
    "E3": ("bench_compression", "Compression ratios and kernel times (CLA)", {}),
    "E4": ("bench_rewrites",
           "Algebraic rewrites + mmchain (SystemML compiler)", {}),
    "E5": ("bench_fusion",
           "Operator fusion: runtime and intermediate memory", {}),
    "E6": ("bench_indb",
           "In-DB IGD vs BGD vs linregr: epochs-to-loss (Bismarck)", {}),
    "E7": ("bench_selection", "Successive halving vs full grid (MSMS/TuPAQ)", {}),
    "E8": ("bench_columbus",
           "Feature-subset exploration: statistics reuse (Columbus)", {}),
    "E9": ("bench_bufferpool",
           "Buffer pool: hit ratio vs pool size over 5 epochs", {}),
    "E10": ("bench_cla_planner",
            "Sampling-based compression planning accuracy", {}),
    "E11": ("bench_warmstart", "Warm vs cold starts on an L2 path", {}),
    "E12": ("bench_cse", "CSE: executed operators and runtime", {}),
    "E13": ("bench_sparse",
            "Sparsity exploitation: CSR vs dense by density", {}),
    "E14": ("bench_ablation", "Compiler-pass ablation on the GLM gradient", {}),
    "E15": ("bench_distributed",
            "Distributed strategies: accuracy vs communication", {}),
    "E16": ("bench_algorithms",
            "Declarative algorithm scripts vs library implementations", {}),
    "E17": ("bench_foldreuse",
            "CV with shared fold statistics vs per-config refits", {}),
    "E18": ("bench_parallel", "Cost-aware parallel execution engine",
            {"quick": True, "threads": [1, 2, 4], "repeats": 1}),
    "E19": ("bench_repr_exec",
            "Representation-aware execution of DSL iteration loops",
            {"quick": True, "repeats": 1}),
    "E20": ("bench_obs_overhead",
            "Observability overhead: disabled-path bound on E19 quick", _QUICK),
    "E21": ("bench_resilience",
            "Fault-tolerant execution: chaos completion and overhead", _QUICK),
    "E22": ("bench_serving",
            "Online serving: micro-batching, cache, canary split", _QUICK),
    "E23": ("bench_feedback",
            "Adaptive re-optimization: observed costs correct the plan", _QUICK),
    "E24": ("bench_reuse",
            "Lineage-aware materialization: cross-workload reuse", _QUICK),
    "E25": ("bench_incremental",
            "Incremental maintenance: delta refresh, chaos, hot-swap", _QUICK),
    "E26": ("bench_sharding",
            "Sharded serving fabric: failover, quotas, scaling", _QUICK),
    "E27": ("bench_features",
            "Feature store: online/offline parity, drift-gated rollout", _QUICK),
}


def _registry_lines() -> list[str]:
    return [f"{tag:>5}  {title}" for tag, (_, title, _) in EXPERIMENTS.items()]


def _run_one(tag: str) -> dict:
    """Run one experiment in a fresh obs scope; return its obs report."""
    module_name, title, args = EXPERIMENTS[tag]
    module = importlib.import_module(module_name)
    print(f"\n{'=' * 72}\n{tag}: {title}\n{'=' * 72}")
    obs.reset()
    with obs.span(f"experiment.{tag}", title=title):
        timing = harness.timed(
            lambda: module.report(module.run(**args)), repeats=1
        )
    doc = obs.report()
    doc["experiment"] = tag
    doc["title"] = title
    doc["wall_seconds"] = timing.best
    return doc


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the DESIGN.md experiment tables."
    )
    parser.add_argument("tags", nargs="*", help="experiment tags (default all)")
    parser.add_argument(
        "--list", "-l", action="store_true", help="show the registry and exit"
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write one consolidated obs JSON report (span trees need "
        "REPRO_TRACE=1) covering every experiment run",
    )
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(_registry_lines()))
        return 0
    requested = [a.upper() for a in args.tags] or list(EXPERIMENTS)
    unknown = [r for r in requested if r not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known:")
        print("\n".join(_registry_lines()))
        return 2
    reports = {tag: _run_one(tag) for tag in requested}
    if args.report:
        harness.write_json(
            args.report,
            {
                "schema": "repro.obs/report-bundle/v1",
                "meta": {
                    **harness.bench_metadata("run_experiments"),
                    "tracing": obs.tracing_enabled(),
                    "experiments_run": requested,
                },
                "experiments": reports,
            },
        )
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
