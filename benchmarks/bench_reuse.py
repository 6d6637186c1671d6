#!/usr/bin/env python3
"""E24 — Lineage-aware materialization: cross-workload sub-plan reuse.

A feature-subset grid search (``repro.selection.ridge_feature_grid``)
whose per-(subset, fold) sufficient statistics are fingerprinted and
materialized by :mod:`repro.materialize`. Three legs, each asserted in
``run()`` (``check_regression.py`` holds the warm speedup against the
committed baseline):

1. **Grid reuse** — the full (subset) x (fold) x (lambda) sweep, cold
   (empty store) vs warm (same store, and a *restart* instance over the
   same directory that serves every statistic from disk). The warm sweep
   must be **>= 3x** faster, **bit-identical** to cold, and the
   hit/miss/byte ledger must match the workload exactly:
   ``cold misses == puts == |subsets| x |folds|`` and
   ``warm hits == |subsets| x |folds|`` with zero misses. A second
   "analyst" sweep — overlapping subsets, a wider lambda grid — then
   reuses the shared statistics outright (hits and misses both exact),
   which is the cross-workload claim in one number.
2. **Corruption repair** — a restart instance with deterministically
   corrupted entries (and a chaos variant that corrupts *every* disk
   read via ``materialize.read``). CRC validation turns each bad entry
   into a miss, lineage recompute repairs it, and the repaired sweep is
   bit-identical to the cold reference; ``corrupt_entries`` and
   ``recomputes`` count the injections exactly.
3. **Eviction ledger** — a capacity-bounded store admits the whole
   sweep but can keep only R statistics resident; with equal-size
   entries the eviction count is exactly ``puts - R``, a pinned entry
   survives the pressure, and the sweep still serves every request
   (memory hits + disk fallbacks) bit-identically.

Usage::

    python benchmarks/bench_reuse.py            # full sizes
    python benchmarks/bench_reuse.py --quick    # CI smoke run
"""

from __future__ import annotations

import tempfile

import numpy as np

import harness
from repro.materialize import MaterializationStore
from repro.resilience import ChaosContext, FaultPlan
from repro.selection import ridge_feature_grid

#: acceptance bounds
MIN_GRID_SPEEDUP = 3.0

STORE_MIN_FLOPS = 1e4


def _workload(n: int, d: int, n_subsets: int, subset_d: int, seed=2017):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    # Overlapping contiguous windows: deterministic, distinct, and they
    # share columns — the realistic shape of an analyst's sweep.
    subsets = [
        tuple(sorted((j * 3 + i) % d for i in range(subset_d)))
        for j in range(n_subsets)
    ]
    return X, y, subsets


def _grid_identical(a, b) -> bool:
    return all(
        np.array_equal(np.asarray(a.mean_rmse[s]), np.asarray(b.mean_rmse[s]))
        for s in a.subsets
    )


def _stat_bytes(subset_d: int) -> int:
    # One augmented (d+1) x (d+1) float64 statistic per (subset, fold).
    return (subset_d + 1) ** 2 * 8


# ----------------------------------------------------------------------
# Leg 1: cold vs warm grid search, restart, cross-workload reuse
# ----------------------------------------------------------------------
def grid_leg(
    n: int, d: int, n_subsets: int, subset_d: int, folds: int,
    n_lambdas: int, repeats: int, directory,
) -> dict:
    X, y, subsets = _workload(n, d, n_subsets, subset_d)
    lambdas = list(np.logspace(-3, 2, n_lambdas))
    pairs = n_subsets * folds

    store = MaterializationStore(directory, min_flops=STORE_MIN_FLOPS)

    def sweep():
        return ridge_feature_grid(X, y, subsets, lambdas, cv=folds, store=store)

    cold_timing = harness.timed(sweep, repeats=1)  # the store fills once
    cold = cold_timing.result
    cold_led = store.ledger()

    warm_timing = harness.timed(sweep, repeats)
    warm = warm_timing.result
    warm_led = store.ledger()
    warm_hits = warm_led["hits"] - cold_led["hits"]

    # Tomorrow's analyst: overlapping subsets, wider lambda grid. Shared
    # statistics are served; only the new subset's folds are computed.
    shared = subsets[: max(1, n_subsets // 2)]
    fresh = [tuple(range(d - subset_d, d))]
    assert fresh[0] not in subsets
    cross = ridge_feature_grid(
        X, y, shared + fresh, list(np.logspace(-4, 3, n_lambdas * 2)),
        cv=folds, store=store,
    )
    cross_led = store.ledger()

    # Restart: a fresh instance over the same directory serves the whole
    # sweep from disk (its memory tier starts empty).
    restart_store = MaterializationStore(
        directory, min_flops=STORE_MIN_FLOPS
    )
    restart = ridge_feature_grid(
        X, y, subsets, lambdas, cv=folds, store=restart_store
    )
    restart_led = restart_store.ledger()

    expected_bytes = pairs * _stat_bytes(subset_d)
    return {
        "workload": "grid/feature_subsets",
        "n_rows": n,
        "n_cols": d,
        "subsets": n_subsets,
        "subset_d": subset_d,
        "folds": folds,
        "lambdas": n_lambdas,
        "pairs": pairs,
        **cold_timing.fields("cold_wall_s"),
        **warm_timing.fields("warm_wall_s"),
        "speedup": cold_timing.best / warm_timing.best,
        "bit_identical": _grid_identical(cold, warm),
        "solves": cold.solves,
        "best_subset": list(cold.best[0]),
        "best_rmse": cold.best[2],
        "cold_ledger": {
            k: cold_led[k]
            for k in ("hits", "misses", "puts", "bytes_materialized")
        },
        "warm_hits_per_pass": warm_hits // repeats,
        "counts_exact": (
            cold_led["misses"] == cold_led["puts"] == pairs
            and cold_led["hits"] == 0
            and cold_led["bytes_materialized"] == expected_bytes
            and warm_hits == repeats * pairs
            and warm_led["misses"] == cold_led["misses"]
        ),
        "cross_workload_hits": cross_led["hits"] - warm_led["hits"],
        "cross_workload_misses": cross_led["misses"] - warm_led["misses"],
        "cross_workload_exact": (
            cross_led["hits"] - warm_led["hits"] == len(shared) * folds
            and cross_led["misses"] - warm_led["misses"] == folds
        ),
        "cross_best_rmse": cross.best[2],
        "restart_bit_identical": _grid_identical(cold, restart),
        "restart_disk_hits": restart_led["disk_hits"],
        "restart_exact": (
            restart_led["hits"] == restart_led["disk_hits"] == pairs
            and restart_led["misses"] == 0
        ),
    }


# ----------------------------------------------------------------------
# Leg 2: corrupted entries repair through lineage recompute
# ----------------------------------------------------------------------
def repair_leg(
    n: int, d: int, n_subsets: int, subset_d: int, folds: int,
    n_lambdas: int, n_corrupt: int,
) -> dict:
    X, y, subsets = _workload(n, d, n_subsets, subset_d)
    lambdas = list(np.logspace(-3, 2, n_lambdas))
    pairs = n_subsets * folds

    with tempfile.TemporaryDirectory() as tmp:
        store = MaterializationStore(tmp, min_flops=STORE_MIN_FLOPS)
        reference = ridge_feature_grid(
            X, y, subsets, lambdas, cv=folds, store=store
        )

        # Deterministic corruption: flip one byte in the first
        # n_corrupt persisted entries, then serve the sweep from a
        # restart instance. CRC turns each into a miss; the fold
        # statistic is recomputed from its lineage (the base operands
        # are still bound) and re-admitted.
        repaired_store = MaterializationStore(
            tmp, min_flops=STORE_MIN_FLOPS
        )
        victims = [e["key"] for e in repaired_store.entries()[:n_corrupt]]
        for key in victims:
            repaired_store.corrupt(key)
        repaired = ridge_feature_grid(
            X, y, subsets, lambdas, cv=folds, store=repaired_store
        )
        led = repaired_store.ledger()

        # Chaos variant: every disk read corrupts. All entries repair.
        chaos_store = MaterializationStore(tmp, min_flops=STORE_MIN_FLOPS)
        plan = FaultPlan(seed=7).inject(
            "materialize.read", rate=1.0, mode="corrupt"
        )
        with ChaosContext(plan):
            chaos = ridge_feature_grid(
                X, y, subsets, lambdas, cv=folds, store=chaos_store
            )
        chaos_led = chaos_store.ledger()

    return {
        "workload": "repair/corrupted_entries",
        "pairs": pairs,
        "corrupted": n_corrupt,
        "corrupt_entries": led["corrupt_entries"],
        "recomputes": led["recomputes"],
        "hits": led["hits"],
        "misses": led["misses"],
        "counts_exact": (
            led["corrupt_entries"] == n_corrupt
            and led["misses"] == n_corrupt
            and led["recomputes"] == n_corrupt
            and led["hits"] == pairs - n_corrupt
        ),
        "bit_identical": _grid_identical(reference, repaired),
        "chaos_corrupt_entries": chaos_led["corrupt_entries"],
        "chaos_recomputes": chaos_led["recomputes"],
        "chaos_counts_exact": (
            chaos_led["corrupt_entries"] == pairs
            and chaos_led["recomputes"] == pairs
        ),
        "chaos_bit_identical": _grid_identical(reference, chaos),
    }


# ----------------------------------------------------------------------
# Leg 3: capacity-bounded eviction ledger
# ----------------------------------------------------------------------
def eviction_leg(
    n: int, d: int, n_subsets: int, subset_d: int, folds: int,
    n_lambdas: int, resident: int,
) -> dict:
    X, y, subsets = _workload(n, d, n_subsets, subset_d)
    lambdas = list(np.logspace(-3, 2, n_lambdas))
    pairs = n_subsets * folds
    entry_bytes = _stat_bytes(subset_d)

    with tempfile.TemporaryDirectory() as tmp:
        store = MaterializationStore(
            tmp,
            capacity_bytes=resident * entry_bytes,
            min_flops=STORE_MIN_FLOPS,
        )
        cold = ridge_feature_grid(
            X, y, subsets, lambdas, cv=folds, store=store
        )
        cold_led = store.ledger()
        # Equal-size entries: every put past capacity evicts exactly one.
        evictions_exact = (
            cold_led["evictions"] == pairs - resident
            and cold_led["resident_bytes"] == resident * entry_bytes
        )

        pinned_key = store.pool.keys()[0]
        store.pin(pinned_key)
        warm = ridge_feature_grid(
            X, y, subsets, lambdas, cv=folds, store=store
        )
        warm_led = store.ledger()

    return {
        "workload": "eviction/capacity_ledger",
        "pairs": pairs,
        "capacity_entries": resident,
        "entry_bytes": entry_bytes,
        "cold_evictions": cold_led["evictions"],
        "evictions_exact": evictions_exact,
        "warm_hits": warm_led["hits"] - cold_led["hits"],
        "warm_disk_hits": warm_led["disk_hits"],
        "all_served": (
            warm_led["hits"] - cold_led["hits"] == pairs
            and warm_led["misses"] == cold_led["misses"]
        ),
        "pinned_resident": pinned_key in store.pool.pinned()
        and pinned_key in store.pool,
        "bit_identical": _grid_identical(cold, warm),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, repeats: int) -> dict:
    if quick:
        g_n, g_d, g_s, g_sd, g_k, g_l = 3000, 48, 5, 32, 4, 4
        r_n, r_d, r_s, r_sd = 1500, 32, 4, 16
    else:
        g_n, g_d, g_s, g_sd, g_k, g_l = 12000, 96, 8, 80, 5, 4
        r_n, r_d, r_s, r_sd = 4000, 64, 6, 32

    with tempfile.TemporaryDirectory() as tmp:
        grid = grid_leg(g_n, g_d, g_s, g_sd, g_k, g_l, repeats, tmp)
    repair = repair_leg(r_n, r_d, r_s, r_sd, 4, 3, n_corrupt=3)
    eviction = eviction_leg(r_n, r_d, r_s, r_sd, 4, 3, resident=7)
    results = [grid, repair, eviction]

    assert grid["speedup"] >= MIN_GRID_SPEEDUP, (
        f"grid/feature_subsets: warm speedup {grid['speedup']:.2f} >= "
        f"{MIN_GRID_SPEEDUP} (within-capture bound)"
    )
    assert grid["bit_identical"], (
        "grid/feature_subsets: warm sweep bit-identical to cold"
    )
    assert grid["counts_exact"], (
        f"grid/feature_subsets: cold ledger exact, misses == puts == "
        f"{grid['pairs']} and warm hits match ({grid['cold_ledger']})"
    )
    assert grid["cross_workload_exact"], (
        f"grid/feature_subsets: second workload's {grid['cross_workload_hits']}"
        f" reused + {grid['cross_workload_misses']} new statistics both exact"
    )
    assert grid["restart_exact"] and grid["restart_bit_identical"], (
        f"grid/feature_subsets: restart served all {grid['pairs']} statistics "
        f"from disk ({grid['restart_disk_hits']} disk hits), bit-identically"
    )
    assert repair["counts_exact"], (
        f"repair/corrupted_entries: {repair['corrupted']} corrupted entries "
        f"-> exactly as many lineage recomputes ({repair['recomputes']})"
    )
    assert repair["bit_identical"], (
        "repair/corrupted_entries: repaired sweep bit-identical to cold"
    )
    assert repair["chaos_counts_exact"] and repair["chaos_bit_identical"], (
        f"repair/corrupted_entries: chaos (every read corrupts) repaired all "
        f"{repair['pairs']} entries ({repair['chaos_corrupt_entries']}) "
        f"bit-identically"
    )
    assert eviction["evictions_exact"], (
        f"eviction/capacity_ledger: evictions exactly puts - capacity "
        f"({eviction['cold_evictions']} vs {eviction['pairs']} - "
        f"{eviction['capacity_entries']})"
    )
    assert eviction["all_served"] and eviction["bit_identical"], (
        "eviction/capacity_ledger: capacity-bounded warm sweep served every "
        "statistic bit-identically"
    )
    assert eviction["pinned_resident"], (
        "eviction/capacity_ledger: pinned entry survived eviction pressure"
    )

    return {
        "meta": {**harness.bench_metadata("E24"), "quick": quick},
        "results": results,
        "summary": {
            "grid_speedup": grid["speedup"],
            "grid_bit_identical": grid["bit_identical"],
            "repaired_entries": repair["corrupt_entries"],
            "cold_evictions": eviction["cold_evictions"],
        },
    }


def report(results: dict) -> None:
    meta = results["meta"]
    print(
        f"E24 — lineage-aware materialization "
        f"(cpus={meta['cpu_count']}, quick={meta['quick']})"
    )
    grid, repair, eviction = results["results"]
    print(
        f"\n  grid:     {grid['pairs']} statistics, cold "
        f"{grid['cold_wall_s'] * 1e3:.0f}ms -> warm "
        f"{grid['warm_wall_s'] * 1e3:.1f}ms ({grid['speedup']:.1f}x), "
        f"bit-identical={grid['bit_identical']}, "
        f"restart disk hits {grid['restart_disk_hits']}"
    )
    print(
        f"  cross:    2nd analyst reused {grid['cross_workload_hits']} "
        f"statistics, computed {grid['cross_workload_misses']} new"
    )
    print(
        f"  repair:   {repair['corrupt_entries']} corrupted -> "
        f"{repair['recomputes']} lineage recomputes, "
        f"bit-identical={repair['bit_identical']} "
        f"(chaos: {repair['chaos_corrupt_entries']} repaired)"
    )
    print(
        f"  evict:    capacity {eviction['capacity_entries']} of "
        f"{eviction['pairs']} entries -> {eviction['cold_evictions']} "
        f"evictions (exact={eviction['evictions_exact']}), pinned "
        f"survived={eviction['pinned_resident']}"
    )


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__))
