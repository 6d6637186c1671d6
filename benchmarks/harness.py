"""The one benchmark harness every ``bench_*.py`` module runs on.

Five things live here and nowhere else under ``benchmarks/`` (outside
``e2e/``, which is the whole-loop harness with its own clock):

* the ``repro`` import-path bootstrap (``import harness`` first, then
  ``from repro ...`` works with or without ``PYTHONPATH=src``);
* :func:`timed` — the only repeat timer. Every wall-clock value in a
  capture is the **best** of ``repeats`` runs (so baselines and in-bench
  bounds stay comparable across captures), and :meth:`Timing.fields`
  writes the repeat count, median and inter-quartile spread beside it;
* :func:`bench_metadata` — the environment block of every capture;
* :func:`main` / :func:`write_json` — the ``--quick/--repeats/--out``
  command line and the JSON writer;
* :func:`overhead_leg` — the E20-style disabled-path bound (exact event
  counts x microbenchmarked unit costs < 3 % of wall), with
  :func:`disabled_overhead` as its core for benches whose disabled path
  is not a fault point.

A bench checks its own capture: every invariant one capture decides (a
flag, an exact ledger, a parity or overhead bound, a published speedup
floor) is an ``assert`` in the bench, beside the value, whose message
names the workload, the field and the bound — so ``--quick`` alone is
the within-capture check and a failing run writes no JSON.
``check_regression.py`` holds what needs a baseline capture too, and
E23's post-correction floor, which holds only when E23 runs alone.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.resilience import (  # noqa: E402
    ChaosContext,
    FaultPlan,
    active_chaos,
    fault_point,
)
from repro.runtime.parallel import (  # noqa: E402
    DEFAULT_COST_THRESHOLD,
    default_num_threads,
)

#: acceptance bound of every disabled-path leg, as a fraction of wall.
MAX_DISABLED_OVERHEAD = 0.03

#: calls per unit-cost microbenchmark.
UNIT_CALLS = 200_000


@dataclass(frozen=True)
class Timing:
    """Wall-clock samples of one repeated call, plus its last result."""

    samples: tuple[float, ...]
    result: object

    @property
    def best(self) -> float:
        return min(self.samples)

    def fields(self, name: str) -> dict:
        """``name`` keeps its meaning (best of ``repeats``); the spread
        of the same samples is written beside it."""
        q1, median, q3 = np.percentile(self.samples, [25, 50, 75])
        return {
            name: self.best,
            f"{name}_repeats": len(self.samples),
            f"{name}_median": float(median),
            f"{name}_iqr": float(q3 - q1),
        }


def timed(fn, repeats: int = 3) -> Timing:
    """Call ``fn`` ``repeats`` times; keep every sample and the last
    result. ``repeats=1`` is the single-shot stopwatch."""
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return Timing(tuple(samples), result)


def unit_cost(fn, *args) -> float:
    """Per-call seconds of a disabled-path primitive ``fn(*args)``."""

    def loop():
        for _ in range(UNIT_CALLS):
            fn(*args)

    return timed(loop, repeats=1).best / UNIT_CALLS


def disabled_overhead(label: str, wall: Timing, events) -> tuple[float, float]:
    """The E20 first-principles bound. ``events`` is a list of
    ``(exact count, unit cost in seconds)``; their product summed is an
    upper bound on what the disabled instrumentation costs one run of
    the workload ``label`` whose wall-clock is ``wall``. Event counts
    are exact, so the bound holds in CI without wall-clock flakiness.
    Returns ``(estimated seconds, estimated percent of wall)`` and
    asserts the percent is under :data:`MAX_DISABLED_OVERHEAD`."""
    estimated = sum(count * cost for count, cost in events)
    pct = 100.0 * estimated / wall.best
    assert pct < 100.0 * MAX_DISABLED_OVERHEAD, (
        f"{label}: disabled-path overhead {pct:.3f}% < "
        f"{MAX_DISABLED_OVERHEAD:.0%} ({[count for count, _ in events]} events)"
    )
    return estimated, pct


def disabled_crossings(workload) -> int:
    """The calls one plain run of ``workload`` makes to the disabled
    path's two primitives, ``fault_point`` and ``active_chaos`` (each a
    global load and an ``is None`` test), counted by a profile hook on
    every thread the run starts. A site that asks once per call whether
    a plan is installed, and with none skips its per-row crossings,
    counts as that one question, not as the crossings a plan would see."""
    codes = {fault_point.__code__, active_chaos.__code__}
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        workload()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return calls


def overhead_leg(site: str, workload, label: str, repeats: int) -> dict:
    """Disabled-path bound for fault-point instrumentation: with no
    chaos installed a fault point is one global load and an ``is None``
    test. :func:`disabled_crossings` counts the run's disabled-path calls
    exactly, and a rate-0 match-everything plan counts the crossings a
    plan sees without ever injecting (never fewer); ``site`` names the
    microbenchmarked unit fault point."""
    wall = timed(workload, repeats)
    crossings = disabled_crossings(workload)
    with ChaosContext(FaultPlan(seed=0).inject("*", rate=0.0)) as chaos:
        workload()
    planned = chaos.total_invocations()
    assert planned > 0, f"{label}: workload crossed no fault point"
    unit = unit_cost(fault_point, site)
    estimated, pct = disabled_overhead(label, wall, [(crossings, unit)])
    return {
        "workload": label,
        **wall.fields("wall_s"),
        "fault_point_crossings": crossings,
        "planned_crossings": planned,
        "unit_cost_s": unit,
        "estimated_overhead_s": estimated,
        "estimated_overhead_pct": pct,
        "bound_pct": 100.0 * MAX_DISABLED_OVERHEAD,
    }


def report_overhead_leg(leg: dict) -> None:
    print(
        f"  disabled-path bound: {leg['fault_point_crossings']} crossings "
        f"({leg['planned_crossings']} under a plan) x "
        f"{leg['unit_cost_s'] * 1e9:.0f} ns = "
        f"{leg['estimated_overhead_pct']:.3f}% of wall "
        f"(limit {leg['bound_pct']:.0f}%)  -> PASS"
    )


def bench_metadata(experiment: str) -> dict:
    """Shared environment block every ``BENCH_*.json`` meta embeds.

    Records the knobs that make two captures comparable: hardware
    parallelism, the ``REPRO_NUM_THREADS`` override (if any), the
    parallel backend defaults, and interpreter/library versions.

    ``cpu_count`` is descriptive, not a switch: ``check_regression.py``
    applies one wall-clock rule on every host, and only a rule whose
    metric depends on cores (E18's thread speedups) reads it.

    ``chaos_seed_env``/``chaos_active`` record whether the capture ran
    under fault injection: ``check_regression.py`` refuses to compare a
    chaos capture against a clean baseline (or vice versa), because shed
    and retry counters are only meaningful between like captures.
    """
    return {
        "experiment": experiment,
        "cpu_count": os.cpu_count(),
        "repro_num_threads": os.environ.get("REPRO_NUM_THREADS"),
        "effective_workers": default_num_threads(),
        "backend": "thread",
        "default_threshold": DEFAULT_COST_THRESHOLD,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "tracing": os.environ.get("REPRO_TRACE") in ("1", "true", "yes", "on"),
        "chaos_seed_env": os.environ.get("REPRO_CHAOS_SEED"),
        "chaos_active": active_chaos() is not None,
    }


def write_json(path: str, document: dict) -> None:
    pathlib.Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(f"\nwrote {path}")


def main(run, report, doc: str, *, quick_repeats: int = 2, options=()) -> int:
    """The bench command line: ``--quick``, ``--repeats``, ``--out``
    plus the module's own ``options`` (``(flag, add_argument kwargs)``
    pairs), all handed to ``run`` as keyword arguments."""
    parser = argparse.ArgumentParser(description=doc.strip().split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help=f"timer repeats (default {quick_repeats} with --quick, else 3)",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    args = vars(parser.parse_args())
    out = args.pop("out")
    args["repeats"] = args["repeats"] or (quick_repeats if args["quick"] else 3)
    results = run(**args)
    report(results)
    if out:
        write_json(out, results)
    return 0
