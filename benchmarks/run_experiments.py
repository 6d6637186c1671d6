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
this runner's order (after E18/E19) would fail. ``tasks.TASKS`` maps a
DESIGN.md tag to its module, title and the arguments that keep it quick
inside this runner. Adding an experiment is one module and one row
there. Each prints the rows the surveyed system's paper reports
(speedup vs. a parameter sweep, compression ratios per data regime,
cost-vs-quality of search strategies, ...).
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
from tasks import TASKS


def _registry_lines() -> list[str]:
    return [f"{task.tag:>5}  {task.title}" for task in TASKS.values()]


def _run_one(tag: str) -> dict:
    """Run one experiment in a fresh obs scope; return its obs report."""
    task = TASKS[tag]
    module = importlib.import_module(task.module)
    print(f"\n{'=' * 72}\n{tag}: {task.title}\n{'=' * 72}")
    obs.reset()
    with obs.span(f"experiment.{tag}", title=task.title):
        timing = harness.timed(
            lambda: module.report(module.run(**task.kwargs)), repeats=1
        )
    doc = obs.report()
    doc["experiment"] = tag
    doc["title"] = task.title
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
    requested = [a.upper() for a in args.tags] or list(TASKS)
    unknown = [r for r in requested if r not in TASKS]
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
