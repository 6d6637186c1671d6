#!/usr/bin/env python3
"""E20 — Observability overhead: the disabled path is (nearly) free.

The observability layer must not tax production runs: spans are gated by
``REPRO_TRACE`` and metrics publication is a handful of dict updates per
*aggregate* event (per execute call, per pmap dispatch, per block
access), never per element. This benchmark bounds the cost on the E19
quick logistic-regression workload (compressed CLA operand, the same
sizes ``bench_repr_exec --quick`` uses) two ways:

1. **First-principles bound** (the asserted one): run the workload once
   with tracing *enabled* to count every span the instrumentation would
   open, and read the registry's update counter for every metric write.
   Separately measure the per-call cost of a *disabled* ``span()`` and
   of one metric update. The disabled-path overhead versus a
   hypothetical uninstrumented build is then at most
   ``spans * span_cost + updates * update_cost`` — asserted to be
   < 3% of the disabled-mode wall time. This bound is deterministic
   (event counts are exact, unit costs are microbenchmarked over 2e5
   calls), so it gates in CI without wall-clock flakiness.
2. **Direct A/B** (reported, not asserted): wall time with tracing
   enabled vs disabled, which additionally prices the enabled path.

Usage::

    python benchmarks/bench_obs_overhead.py            # full sizes
    python benchmarks/bench_obs_overhead.py --quick    # CI smoke run
"""

from __future__ import annotations

import numpy as np

import harness
from repro import obs
from repro.algorithms import logreg_gd
from repro.compression import CompressedMatrix
from repro.data import make_low_cardinality_matrix


def _make_workload(n: int, d: int, iters: int):
    """The E19-quick logreg/cla loop, operand compressed up front."""
    X = make_low_cardinality_matrix(n, d, cardinality=8, seed=1)
    C = CompressedMatrix.compress(X)
    y = np.random.default_rng(2017).integers(0, 2, size=n).astype(np.float64)
    return lambda: logreg_gd(C, y, max_iter=iters, tol=0.0)


def _count_span_nodes(span_dicts) -> int:
    total = 0
    stack = list(span_dicts)
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.get("children", ()))
    return total


def _disabled_span() -> None:
    with obs.span("e20.unit"):
        pass


def measure_unit_costs() -> dict:
    """Per-call cost of the disabled-path primitives."""
    obs.set_tracing(False)
    try:
        span_cost = harness.unit_cost(_disabled_span)
        update_cost = harness.unit_cost(obs.get_registry().inc, "e20.unit_counter")
    finally:
        obs.set_tracing(None)
    return {"span_call_s": span_cost, "metric_update_s": update_cost}


def count_events(workload) -> dict:
    """Exact span + metric-update counts for one workload run."""
    obs.reset()
    obs.set_tracing(True)
    try:
        workload()
    finally:
        obs.set_tracing(None)
    doc = obs.report()
    spans = _count_span_nodes(doc["spans"]) + doc["dropped_spans"]
    updates = obs.get_registry().total_updates()
    obs.reset()
    return {"spans": spans, "metric_updates": updates}


def run(quick: bool, repeats: int) -> dict:
    if quick:
        n, d, iters = 12_000, 12, 5
    else:
        n, d, iters = 60_000, 16, 10
    workload = _make_workload(n, d, iters)

    before = obs.tracing_enabled()
    obs.reset()
    obs.set_tracing(False)
    try:
        disabled = harness.timed(workload, repeats)
    finally:
        obs.set_tracing(None)

    obs.set_tracing(True)
    try:
        assert obs.tracing_enabled()
        enabled = harness.timed(workload, repeats)
    finally:
        obs.set_tracing(None)
    assert obs.tracing_enabled() == before, "toggle did not restore the env default"
    obs.reset()

    events = count_events(workload)
    assert events["spans"] > 0, "the enabled run traced nothing"
    units = measure_unit_costs()
    instrumented_cost, overhead_pct = harness.disabled_overhead(
        "logreg_gd/cla (E19 quick loop)",
        disabled,
        [
            (events["spans"], units["span_call_s"]),
            (events["metric_updates"], units["metric_update_s"]),
        ],
    )

    return {
        "meta": {**harness.bench_metadata("E20"), "quick": quick},
        "workload": {
            "name": "logreg_gd/cla (E19 quick loop)",
            "n_rows": n,
            "n_cols": d,
            "iterations": iters,
        },
        **disabled.fields("disabled_wall_s"),
        **enabled.fields("enabled_wall_s"),
        "enabled_overhead_pct": 100.0 * (enabled.best / disabled.best - 1.0),
        "events": events,
        "unit_costs": units,
        "estimated_disabled_cost_s": instrumented_cost,
        "estimated_disabled_overhead_pct": overhead_pct,
        "bound_pct": 100.0 * harness.MAX_DISABLED_OVERHEAD,
    }


def report(results: dict) -> None:
    w = results["workload"]
    print(
        f"E20 — observability overhead on {w['name']} "
        f"({w['n_rows']}x{w['n_cols']}, {w['iterations']} iters)"
    )
    print(f"  wall (tracing off): {results['disabled_wall_s'] * 1e3:8.2f} ms")
    print(
        f"  wall (tracing on):  {results['enabled_wall_s'] * 1e3:8.2f} ms "
        f"({results['enabled_overhead_pct']:+.1f}%)"
    )
    e, u = results["events"], results["unit_costs"]
    print(
        f"  events/run: {e['spans']} spans, {e['metric_updates']} metric "
        f"updates"
    )
    print(
        f"  unit costs: span(off) {u['span_call_s'] * 1e9:.0f} ns, "
        f"metric update {u['metric_update_s'] * 1e9:.0f} ns"
    )
    print(
        f"  disabled-path bound: {results['estimated_disabled_overhead_pct']:.3f}% "
        f"of wall (limit {results['bound_pct']:.0f}%)  -> PASS"
    )


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__))
