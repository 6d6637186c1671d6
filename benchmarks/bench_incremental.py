#!/usr/bin/env python3
"""E25 — Incremental maintenance: delta refresh speed, parity, chaos.

Measures what the streaming layer promises over a dynamic base table:

1. **Delta refresh vs snapshot retrain** — a stream of 1%-of-base
   deltas (inserts + deletes + updates) is folded into the maintained
   gram/cofactor state and the ridge model refreshed by an O(d^3)
   solve; the competitor retrains from the full table every round. On
   exact-arithmetic grid data the refreshed weights are **bit-identical**
   to the snapshot retrain, the fold ledger matches its closed form
   exactly, zero lineage recomputes fire, and the incremental path is
   >= 5x faster (within-capture ratio, so it gates anywhere).
2. **Chaos sweep** — the same mutation schedule replayed at 0%, 5%, and
   20% injected fault rates on the ``incremental.apply`` site (plus a
   corrupt-mode leg caught by delta checksums). Every fault triggers a
   lineage recompute from the base table; final aggregates stay
   bit-identical to the clean run and every consumed delta is accounted
   for in the ledger.
3. **Serving hot-swap** — a ``ContinuousTrainer`` refresh after a delta
   batch reaches a one-shard ``ShardedServer`` through its ``promote``
   path: the prediction cache is eagerly invalidated and the served
   value equals the compiled-scorer output of a full snapshot retrain.
4. **Overhead bound** (E20-style) — with no chaos installed the
   maintenance path's fault-point crossings are counted exactly and
   ``crossings * unit_cost < 3%`` of wall time.

Usage::

    python benchmarks/bench_incremental.py            # full sizes
    python benchmarks/bench_incremental.py --quick    # CI smoke run
"""

from __future__ import annotations

import numpy as np

import harness
from repro.data import make_grid_regression
from repro.incremental import (
    ContinuousTrainer,
    DynamicTable,
    IncrementalMaintainer,
)
from repro.lifecycle import ModelRegistry
from repro.ml import LinearRegression
from repro.resilience import ChaosContext, FaultPlan, chaos_seed_from_env
from repro.serving import ShardedServer
from repro.serving.server import compile_linear_scorer
from repro.storage import Table

#: acceptance bounds
MIN_REFRESH_SPEEDUP = 5.0
FAULT_RATES = (0.0, 0.05, 0.2)
DELTA_FRACTION = 0.01
L2 = 0.25


def _grid_table(n: int, d: int, seed: int) -> Table:
    X, y = make_grid_regression(n, d, seed=seed)
    return Table.from_matrix(X, label=y)


def _features(d: int) -> list[str]:
    return [f"f{j}" for j in range(d)]


def _make_maintained(n: int, d: int, seed: int):
    dyn = DynamicTable.from_table(_grid_table(n, d, seed), name="events")
    stream = dyn.subscribe()
    maintainer = IncrementalMaintainer(dyn, stream, _features(d), "label")
    return dyn, stream, maintainer


# ----------------------------------------------------------------------
# Leg 1: delta refresh vs snapshot retrain
# ----------------------------------------------------------------------
def refresh_leg(n: int, d: int, rounds: int) -> dict:
    dyn, _, maintainer = _make_maintained(n, d, seed=2017)
    features = _features(d)
    k = max(1, int(n * DELTA_FRACTION))
    u = max(1, k // 2)

    def delta_refresh():
        maintainer.drain()
        return maintainer.gram_state.solve_ridge(L2)

    def snapshot_retrain():
        fit = LinearRegression(solver="normal", l2=L2, fit_intercept=False)
        return fit.fit(dyn.to_matrix(features), dyn.column("label"))

    t_inc = t_snap = 0.0
    all_identical = True
    for r in range(rounds):
        dyn.insert(_grid_table(k, d, seed=1_000 + r))
        rng = np.random.default_rng(3_000 + r)
        dyn.delete(rng.choice(dyn.row_ids, size=k, replace=False))
        dyn.update(
            rng.choice(dyn.row_ids, size=u, replace=False),
            _grid_table(u, d, seed=5_000 + r),
        )

        inc = harness.timed(delta_refresh, repeats=1)
        snap = harness.timed(snapshot_retrain, repeats=1)
        t_inc += inc.best
        t_snap += snap.best
        all_identical = all_identical and bool(
            np.array_equal(inc.result, snap.result.coef_)
        )

    maintainer.checkpoint_parity()  # raises on any bitwise divergence
    stats = maintainer.stats
    expected_deltas = 3 * rounds
    expected_rows = rounds * (k + k + 2 * u)
    ledger_exact = (
        stats.deltas_applied == expected_deltas
        and stats.rows_folded == expected_rows
        and stats.recomputes == 0
        and stats.corrupt_deltas == 0
        and stats.dropped_deltas == 0
    )
    speedup = t_snap / t_inc if t_inc > 0 else float("inf")
    return {
        "workload": "refresh/delta_vs_snapshot",
        "n_rows": n,
        "n_features": d,
        "rounds": rounds,
        "delta_rows_per_round": k + k + u,
        "delta_fraction": DELTA_FRACTION,
        "bit_identical": all_identical,
        "ledger_exact": ledger_exact,
        "deltas_applied": stats.deltas_applied,
        "rows_folded": stats.rows_folded,
        "rows_folded_expected": expected_rows,
        "recomputes": stats.recomputes,
        "incremental_wall_s": t_inc,
        "snapshot_wall_s": t_snap,
        "speedup": speedup,
        "completed": True,
        "identical": all_identical,
    }


# ----------------------------------------------------------------------
# Leg 2: chaos sweep on the delta-apply site
# ----------------------------------------------------------------------
def _chaos_schedule(dyn, maintainer, rounds: int, d: int) -> None:
    """Fixed mutation schedule — identical bytes under any chaos seed."""
    for r in range(rounds):
        dyn.insert(_grid_table(20, d, seed=7_000 + r))
        dyn.delete(dyn.row_ids[: 10 + (r % 3)])
        dyn.update(dyn.row_ids[:5], _grid_table(5, d, seed=9_000 + r))
        maintainer.drain()


def chaos_leg(n: int, d: int, rounds: int) -> list[dict]:
    seed = chaos_seed_from_env()
    clean_dyn, _, clean = _make_maintained(n, d, seed=2018)
    _chaos_schedule(clean_dyn, clean, rounds, d)

    entries = []
    for rate, mode in [(r, "raise") for r in FAULT_RATES] + [(0.2, "corrupt")]:
        dyn, stream, maintainer = _make_maintained(n, d, seed=2018)
        plan = FaultPlan(seed=seed).inject(
            "incremental.apply", rate=rate, mode=mode
        )
        with ChaosContext(plan) as chaos:
            wall = harness.timed(
                lambda: _chaos_schedule(dyn, maintainer, rounds, d), repeats=1
            )
        maintainer.checkpoint_parity()
        stats = maintainer.stats
        kept, wanted = maintainer.gram_state.moments(), clean.gram_state.moments()
        identical = bool(
            np.array_equal(kept.gram, wanted.gram)
            and np.array_equal(kept.xty, wanted.xty)
        )
        faults = chaos.injected_at("incremental.apply")
        accounted = (
            stats.deltas_applied
            + stats.injected_faults
            + stats.corrupt_deltas
            + stats.skipped_stale
        )
        entries.append(
            {
                "workload": f"chaos/delta_apply/{mode}",
                "fault_rate": rate,
                "mode": mode,
                "completed": True,
                "identical": identical,
                "faults_injected": faults,
                "recomputes": stats.recomputes,
                "recompute_matches_faults": stats.recomputes == faults,
                "deltas_consumed": stream.published,
                "accounted_exact": accounted == stream.published,
                **wall.fields("wall_s"),
            }
        )
    return entries


# ----------------------------------------------------------------------
# Leg 3: end-to-end serving hot-swap
# ----------------------------------------------------------------------
def serving_leg(n: int, d: int) -> dict:
    features = _features(d)
    dyn, _, maintainer = _make_maintained(n, d, seed=2019)
    registry = ModelRegistry()
    trainer = ContinuousTrainer(maintainer, registry, l2=L2, refresh_every=1)
    first = trainer.refresh()
    server = ShardedServer(registry, num_shards=1, replication=1)
    server.create_endpoint("e25-scores", trainer.model_name, output="margin")
    server.promote("e25-scores", first.version)
    trainer.server, trainer.endpoint = server, "e25-scores"

    row = dyn.to_matrix(features)[0]
    before = server.predict("e25-scores", row, key="user-0")
    cached = server.predict("e25-scores", row, key="user-0")
    cache = server.shard("shard-0").server.endpoint("e25-scores").cache
    invalidations0 = cache.stats.invalidations

    k = max(2, n // 50)
    dyn.insert(_grid_table(k, d, seed=11_000))
    dyn.delete(dyn.row_ids[:k])
    refreshed = trainer.step()
    after = server.predict("e25-scores", row, key="user-0")

    fit = LinearRegression(solver="normal", l2=L2, fit_intercept=False)
    fit.fit(dyn.to_matrix(features), dyn.column("label"))
    expected = float(compile_linear_scorer(fit, "margin")(row[None, :])[0])
    versions = registry.versions(trainer.model_name)
    return {
        "workload": "serving/e2e_refresh",
        "n_rows": n,
        "delta_rows": 2 * k,
        "refreshes": trainer.refreshes,
        "prediction_changed": bool(after != before),
        "cache_served_repeat": bool(cached == before),
        "cache_invalidated": bool(
            cache.stats.invalidations > invalidations0
        ),
        "versions_chained": [v.parent_version for v in versions]
        == [None] + [v.version for v in versions[:-1]],
        "promoted_version": refreshed.version if refreshed else None,
        "completed": True,
        "identical": bool(after == expected),
    }


# ----------------------------------------------------------------------
# Leg 4: disabled-path overhead bound
# ----------------------------------------------------------------------
def overhead_leg(n: int, d: int, rounds: int, repeats: int) -> dict:
    def workload():
        dyn, _, maintainer = _make_maintained(n, d, seed=2020)
        _chaos_schedule(dyn, maintainer, rounds, d)
        return maintainer

    return harness.overhead_leg(
        "e25.unit", workload, "maintainer drain (instrumented, no chaos)", repeats
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, repeats: int) -> dict:
    if quick:
        n, d, rounds = 60_000, 12, 5
        n_chaos, chaos_rounds = 2_000, 6
    else:
        n, d, rounds = 200_000, 16, 8
        n_chaos, chaos_rounds = 5_000, 10

    results = [refresh_leg(n, d, rounds)]
    results.extend(chaos_leg(n_chaos, d, chaos_rounds))
    results.append(serving_leg(3_000, d))
    overhead = overhead_leg(n_chaos, d, chaos_rounds, repeats)

    refresh, serving = results[0], results[-1]
    chaos_entries = [e for e in results if "fault_rate" in e]
    identical_all = all(e["identical"] for e in results)

    name = refresh["workload"]
    assert refresh["bit_identical"], (
        f"{name}: delta-refreshed weights bit-identical to snapshot retrain"
    )
    assert refresh["ledger_exact"], (
        f"{name}: fold ledger exact, {refresh['rows_folded']} rows folded == "
        f"closed form {refresh['rows_folded_expected']}"
    )
    assert refresh["recomputes"] == 0, (
        f"{name}: zero lineage recomputes on the clean delta stream"
    )
    assert refresh["speedup"] >= MIN_REFRESH_SPEEDUP, (
        f"{name}: delta refresh speedup {refresh['speedup']:.2f} >= "
        f"{MIN_REFRESH_SPEEDUP} (within-capture bound)"
    )
    assert any(
        e["faults_injected"] > 0
        for e in chaos_entries
        if e["fault_rate"] >= 0.2
    ), "chaos sweep: faults actually injected at the 20% rate"
    for e in chaos_entries:
        leg = f"{e['workload']} @ {e['fault_rate']:.0%}"
        assert e["completed"] and e["identical"], (
            f"{leg}: completed, aggregates bit-identical to clean run"
        )
        assert e["recompute_matches_faults"], (
            f"{leg}: {e['recomputes']} recomputes == "
            f"{e['faults_injected']} injected faults"
        )
        assert e["accounted_exact"], (
            f"{leg}: every consumed delta accounted for in the ledger"
        )
    assert serving["identical"], (
        "serving/e2e_refresh: served value after hot-swap equals compiled "
        "snapshot retrain"
    )
    assert serving["cache_invalidated"] and serving["prediction_changed"], (
        "serving/e2e_refresh: promote eagerly invalidated the prediction cache"
    )
    assert serving["versions_chained"], (
        "serving/e2e_refresh: refreshed versions chain lineage through the "
        "registry"
    )

    return {
        "meta": {
            **harness.bench_metadata("E25"),
            "quick": quick,
            "chaos_seed": chaos_seed_from_env(),
            "fault_rates": list(FAULT_RATES),
            "delta_fraction": DELTA_FRACTION,
            "min_refresh_speedup": MIN_REFRESH_SPEEDUP,
            "l2": L2,
        },
        "results": results,
        "overhead": overhead,
        "summary": {
            "refresh_speedup": refresh["speedup"],
            "identical_all": identical_all,
            "faults_injected_total": sum(
                e.get("faults_injected", 0) for e in results
            ),
            "recomputes_total": sum(e.get("recomputes", 0) for e in results),
            "disabled_overhead_pct": overhead["estimated_overhead_pct"],
        },
    }


def report(results: dict) -> None:
    meta = results["meta"]
    print(
        f"E25 — incremental maintenance "
        f"(cpus={meta['cpu_count']}, chaos_seed={meta['chaos_seed']})"
    )
    refresh = results["results"][0]
    print(
        f"\n  delta refresh: {refresh['rounds']} rounds x "
        f"{refresh['delta_rows_per_round']} delta rows over "
        f"{refresh['n_rows']:,} x {refresh['n_features']} base"
    )
    print(
        f"    incremental {refresh['incremental_wall_s'] * 1e3:8.1f} ms   "
        f"snapshot {refresh['snapshot_wall_s'] * 1e3:8.1f} ms   "
        f"speedup {refresh['speedup']:.1f}x "
        f"(floor {meta['min_refresh_speedup']:.0f}x)"
    )
    print(
        f"    bit-identical: {refresh['bit_identical']}   "
        f"ledger exact: {refresh['ledger_exact']} "
        f"({refresh['rows_folded']} rows folded, "
        f"{refresh['recomputes']} recomputes)"
    )
    print(f"\n{'workload':<28} {'rate':>6} {'faults':>7} {'recomp':>7} "
          f"{'identical':>9}")
    for e in results["results"][1:]:
        if "fault_rate" not in e:
            continue
        print(
            f"{e['workload']:<28} {e['fault_rate']:>6.0%} "
            f"{e['faults_injected']:>7} {e['recomputes']:>7} "
            f"{str(e['identical']):>9}"
        )
    serving = next(
        e for e in results["results"] if e["workload"] == "serving/e2e_refresh"
    )
    print(
        f"\n  serving hot-swap: refreshes={serving['refreshes']}, "
        f"prediction changed={serving['prediction_changed']}, "
        f"cache invalidated={serving['cache_invalidated']}, "
        f"matches snapshot retrain={serving['identical']}"
    )
    harness.report_overhead_leg(results["overhead"])


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__))
