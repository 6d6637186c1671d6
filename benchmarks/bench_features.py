#!/usr/bin/env python3
"""E27 — Feature store: online/offline parity, delta refresh, drift gate.

Measures what the feature store promises around the train/serve loop:

1. **Online/offline parity** — a skewed (Zipf-like) entity stream is
   served one row at a time out of the offline materialization; every
   served row is **bit-identical** to the offline slice and the serve
   ledger (serves / fallbacks / parity checks) is exact.
2. **Delta refresh vs full recompute** — a stream of 1%-of-base deltas
   folds into the maintained view in O(|delta|); the competitor
   recomputes every feature over the full table each round. The
   refreshed rows are bit-identical to the full recompute and the
   incremental path is >= 3x faster (within-capture ratio).
3. **Drift-gated rollout** — two serving streams feed per-feature PSI/KS
   monitors with bucket edges frozen over the training reference: the
   unshifted stream promotes a canary cleanly; an injected covariate
   shift trips the PSI gate, the promotion is held, and the canary is
   auto-rolled back — with the gate ledger exact and every monitor
   statistic replayed bit-equal against an analytic bucket-count oracle.
4. **Chaos sweep** — the parity stream replayed at 0%, 5%, and 20%
   injected fault rates on the ``features.serve`` site (plus a corrupt
   leg): every fault falls back to on-demand recompute under
   ``no_chaos`` and the served bytes stay bit-identical to offline.
5. **Overhead bound** (E20-style) — with no chaos installed the serve +
   refresh path's fault-point crossings are counted exactly and
   ``crossings * unit_cost < 3%`` of wall time.

Usage::

    python benchmarks/bench_features.py            # full sizes
    python benchmarks/bench_features.py --quick    # CI smoke run
"""

from __future__ import annotations

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.errors import PromotionHeldError
from repro.features import (
    DriftGate,
    FeatureStore,
    FeatureView,
    FeatureViewMaintainer,
    OnlineFeatureServer,
)
from repro.incremental import DynamicTable
from repro.lang.dsl import exp as rexp
from repro.lang.dsl import sqrt as rsqrt
from repro.lifecycle import ModelRegistry
from repro.ml import LinearRegression
from repro.resilience import ChaosContext, FaultPlan, chaos_seed_from_env
from repro.serving import ShardedServer
from repro.storage import Table

#: acceptance bounds
MIN_REFRESH_SPEEDUP = 3.0
FAULT_RATES = (0.0, 0.05, 0.2)
DELTA_FRACTION = 0.01
#: additive covariate shift applied to the drifted stream.
SHIFT = 25.0


def _base_table(n: int, seed: int, start: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_columns({
        "entity": np.arange(start, start + n),
        "price": rng.normal(10.0, 2.0, n),
        "qty": rng.integers(1, 50, n).astype(np.float64),
        "score": rng.uniform(-1.0, 1.0, n),
    })


def _view(name: str = "orders") -> FeatureView:
    return FeatureView(name, "entity", {
        "spend": lambda c: c.price * c.qty,
        "root_price": lambda c: rsqrt(c.price * c.price + 1.0),
        "sig_score": lambda c: 1.0 / (1.0 + rexp(-c.score)),
        "scaled": lambda c: (c.price - 10.0) / 2.0,
    })


def _skewed_stream(n_entities: int, length: int, seed: int) -> list[int]:
    """Zipf-like entity picks: a small hot set dominates, with a long
    tail — the access shape online feature reads actually see."""
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(1.3, size=length)
    return (np.minimum(ranks - 1, n_entities - 1)).astype(int).tolist()


# ----------------------------------------------------------------------
# Leg 1: online/offline parity on a skewed stream
# ----------------------------------------------------------------------
def parity_leg(n: int, stream_len: int) -> dict:
    table = _base_table(n, seed=2027)
    view = _view()
    store = FeatureStore()
    offline = store.materialize(view, table)
    server = OnlineFeatureServer(view, offline, table)
    entities = _skewed_stream(n, stream_len, seed=17)

    wall = harness.timed(lambda: server.serve_many(entities), repeats=1)
    served = wall.result
    # one documented lookup per entity, not the batch path serve_many takes
    reference = np.stack([offline.row(entity) for entity in entities])
    identical = bool(served.tobytes() == reference.tobytes())
    parity_ok = server.parity_check(sorted(set(entities)))
    ledger = server.ledger()
    ledger_exact = (
        ledger["serves"] == stream_len
        and ledger["fallbacks"] == 0
        and ledger["parity_checks"] == 1
    )
    return {
        "workload": "parity/online_offline",
        "n_entities": n,
        "stream_len": stream_len,
        "unique_entities": len(set(entities)),
        "view_version": view.version[:12],
        "bit_identical": identical,
        "parity_oracle": bool(parity_ok),
        "ledger_exact": ledger_exact,
        "serves": ledger["serves"],
        **wall.fields("wall_s"),
        "completed": True,
    }


# ----------------------------------------------------------------------
# Leg 2: delta refresh vs full recompute
# ----------------------------------------------------------------------
def refresh_leg(n: int, rounds: int) -> dict:
    view = _view()
    dyn = DynamicTable.from_table(_base_table(n, seed=2028), "orders")
    stream = dyn.subscribe()
    maintainer = FeatureViewMaintainer(view, dyn, stream)
    # The competitor rebuilds the whole serving structure from the base
    # table every round — exactly what keeping the view fresh costs
    # without delta folding. Its unconsumed stream is never drained.
    competitor = FeatureViewMaintainer(view, dyn, dyn.subscribe())
    k = max(1, int(n * DELTA_FRACTION))
    u = max(1, k // 2)

    t_inc = t_full = 0.0
    all_identical = True
    next_entity = 10 * n
    for r in range(rounds):
        dyn.insert(_base_table(k, seed=1_000 + r, start=next_entity))
        next_entity += k
        rng = np.random.default_rng(3_000 + r)
        doomed = rng.choice(dyn.row_ids, size=k, replace=False)
        dyn.delete(doomed)
        victims = rng.choice(dyn.row_ids, size=u, replace=False)
        snapshot = dyn.snapshot()
        id_to_pos = {rid: i for i, rid in enumerate(dyn.row_ids)}
        rows = snapshot.take(np.array([id_to_pos[rid] for rid in victims]))
        dyn.update(victims, rows.with_column(
            "price", rows.column("price") + 1.0
        ))

        t_inc += harness.timed(maintainer.drain, repeats=1).best
        t_full += harness.timed(competitor._rebuild, repeats=1).best

        kept, rebuilt = maintainer.rows, competitor.rows
        round_identical = all(
            kept.row(e).tobytes() == rebuilt.row(e).tobytes()
            for e in view.entities_of(dyn).tolist()
        )
        all_identical = all_identical and round_identical

    maintainer.parity_check()  # raises on any bitwise divergence
    stats = maintainer.stats
    ledger_exact = (
        stats.deltas_applied == 3 * rounds
        and stats.recomputes == 0
        and stats.corrupt_deltas == 0
        and stats.dropped_deltas == 0
        and stats.rows_folded == rounds * (2 * k + u)
    )
    speedup = t_full / t_inc if t_inc > 0 else float("inf")
    return {
        "workload": "refresh/delta_vs_recompute",
        "n_entities": n,
        "rounds": rounds,
        "delta_rows_per_round": k + k + u,
        "delta_fraction": DELTA_FRACTION,
        "bit_identical": all_identical,
        "ledger_exact": ledger_exact,
        "deltas_applied": stats.deltas_applied,
        "rows_folded": stats.rows_folded,
        "recomputes": stats.recomputes,
        "incremental_wall_s": t_inc,
        "full_recompute_wall_s": t_full,
        "speedup": speedup,
        "completed": True,
    }


# ----------------------------------------------------------------------
# Leg 3: drift-gated rollout with an analytic oracle
# ----------------------------------------------------------------------
def _gated_server(view, offline):
    registry = ModelRegistry()
    X = offline.matrix()
    w = np.random.default_rng(7).normal(size=X.shape[1])
    model = LinearRegression().fit(X, X @ w + 1.0)
    registry.register("m", model, feature_fingerprint=view.version)
    registry.deploy("m", 1)
    registry.register("m", model, feature_fingerprint=view.version)
    server = ShardedServer(registry, num_shards=1, replication=1)
    server.create_endpoint("ep", "m")
    gate = DriftGate(view, offline, min_observations=100)
    server.set_promotion_gate("ep", gate)
    server.set_canary("ep", 2, 0.5)
    return server, gate


def _oracle_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """One column's bucket counts by ``searchsorted`` into the frozen
    edges: out-of-range values clip to the end buckets, non-finite ones
    count nowhere."""
    ok = values[np.isfinite(values)]
    idx = np.searchsorted(
        edges, np.clip(ok, edges[0], edges[-1]), side="right"
    ) - 1
    buckets = len(edges) - 1
    return np.bincount(
        np.clip(idx, 0, buckets - 1), minlength=buckets
    ).astype(np.float64)


def _oracle_psi(ref: np.ndarray, cur: np.ndarray) -> float:
    """PSI over epsilon-smoothed (1e-6) bucket probabilities."""
    def probs(counts):
        if counts.sum() <= 0:
            return np.full(len(counts), 1.0 / len(counts))
        p = np.clip(counts / counts.sum(), 1e-6, None)
        return p / p.sum()

    p, q = probs(ref), probs(cur)
    return float(np.sum((p - q) * np.log(p / q)))


def _oracle_ks(ref: np.ndarray, cur: np.ndarray) -> float:
    """Max CDF gap at the bucket edges; 0 when a side is empty."""
    if ref.sum() <= 0 or cur.sum() <= 0:
        return 0.0
    return float(np.max(np.abs(
        np.cumsum(ref) / ref.sum() - np.cumsum(cur) / cur.sum()
    )))


def gate_leg(n: int, passes: int = 3) -> dict:
    table = _base_table(n, seed=2029)
    view = _view()
    offline = FeatureStore().materialize(view, table)
    # Full passes over every entity: the serving stream's feature
    # distribution is then exactly proportional to the training
    # reference, so unshifted PSI is identically zero (no sampling
    # noise) and any trip is attributable to the injected shift.
    entities = np.tile(np.arange(n), passes).tolist()
    stream_len = len(entities)
    online = OnlineFeatureServer(view, offline, table)

    outcomes = {}
    oracle_exact = True
    for scenario, shift in (("unshifted", 0.0), ("shifted", SHIFT)):
        server, gate = _gated_server(view, offline)
        observed = np.vstack(
            [online.serve(entity) + shift for entity in entities]
        )
        gate.observe_many(observed)
        # analytic oracle: every feature's statistics recomputed from
        # closed-form bucket counts over the raw observation list, with
        # none of the gate's code.
        snapshot = gate.drift_snapshot()
        for j, fname in enumerate(view.feature_names):
            edges, stats = gate.edges[j], snapshot[fname]
            ref_counts = _oracle_counts(offline.columns[fname], edges)
            cur_counts = _oracle_counts(observed[:, j], edges)
            oracle_exact = oracle_exact and (
                stats.psi == _oracle_psi(ref_counts, cur_counts)
                and stats.ks == _oracle_ks(ref_counts, cur_counts)
                and stats.observed == stream_len
            )
        held = rolled_back = False
        try:
            server.promote("ep", 2)
        except PromotionHeldError as exc:
            held = True
            rolled_back = exc.rolled_back
        outcomes[scenario] = {
            "held": held,
            "rolled_back": rolled_back,
            "canary_live": (
                server.shard("shard-0").server.endpoint("ep").canary
                is not None
            ),
            "deployed_version": server.registry.deployed("m").version,
            "ledger": gate.ledger(),
            "max_psi": max(s.psi for s in gate.drift_snapshot().values()),
        }

    clean, shifted = outcomes["unshifted"], outcomes["shifted"]
    ledger_exact = (
        clean["ledger"]
        == {"observations": stream_len, "evaluations": 1, "holds": 0,
            "rollbacks": 0, "promotes": 1}
        and shifted["ledger"]
        == {"observations": stream_len, "evaluations": 1, "holds": 1,
            "rollbacks": 1, "promotes": 0}
    )
    assert (
        not clean["held"] and clean["deployed_version"] == 2
        and clean["canary_live"]
    ), "gate/drift_rollout: unshifted stream promoted the canary (v2 deployed)"
    assert (
        shifted["held"] and shifted["rolled_back"]
        and not shifted["canary_live"] and shifted["deployed_version"] == 1
    ), (
        f"gate/drift_rollout: shifted stream (psi {shifted['max_psi']:.2f}) "
        f"held promotion and auto-rolled the canary back"
    )
    assert ledger_exact, (
        "gate/drift_rollout: gate ledger exact, one evaluation per stream, "
        "one hold + one rollback on the shifted stream only"
    )
    assert oracle_exact, (
        "gate/drift_rollout: monitor PSI/KS replayed bit-equal from the "
        "bucket-count oracle"
    )
    return {
        "workload": "gate/drift_rollout",
        "stream_len": stream_len,
        "passes": passes,
        "shift": SHIFT,
        "unshifted": clean,
        "shifted": shifted,
        "ledger_exact": ledger_exact,
        "oracle_exact": oracle_exact,
    }


# ----------------------------------------------------------------------
# Leg 4: chaos sweep on the serve site
# ----------------------------------------------------------------------
def chaos_leg(n: int, stream_len: int) -> list[dict]:
    seed = chaos_seed_from_env()
    table = _base_table(n, seed=2030)
    view = _view()
    offline = FeatureStore().materialize(view, table)
    entities = _skewed_stream(n, stream_len, seed=29)
    reference = offline.slice(entities)

    entries = []
    for rate, mode in [(r, "raise") for r in FAULT_RATES] + [(0.2, "corrupt")]:
        server = OnlineFeatureServer(view, offline, table)
        plan = FaultPlan(seed=seed).inject(
            "features.serve", rate=rate, mode=mode
        )
        with ChaosContext(plan) as chaos:
            wall = harness.timed(lambda: server.serve_many(entities), repeats=1)
        faults = chaos.injected_at("features.serve")
        identical = bool(wall.result.tobytes() == reference.tobytes())
        entries.append({
            "workload": f"chaos/features_serve/{mode}",
            "fault_rate": rate,
            "mode": mode,
            "completed": True,
            "identical": identical,
            "faults_injected": faults,
            "fallbacks": server.fallbacks,
            "fallbacks_match_faults": server.fallbacks == faults,
            "serves": server.serves,
            **wall.fields("wall_s"),
        })
    return entries


# ----------------------------------------------------------------------
# Leg 5: disabled-path overhead bound
# ----------------------------------------------------------------------
def overhead_leg(n: int, stream_len: int, rounds: int, repeats: int) -> dict:
    entities = _skewed_stream(n, stream_len, seed=31)

    def workload():
        view = _view()
        dyn = DynamicTable.from_table(_base_table(n, seed=2031), "orders")
        maintainer = FeatureViewMaintainer(view, dyn, dyn.subscribe())
        next_entity = 10 * n
        for r in range(rounds):
            dyn.insert(_base_table(
                max(1, n // 100), seed=4_000 + r, start=next_entity
            ))
            next_entity += max(1, n // 100)
            maintainer.drain()
        server = OnlineFeatureServer(view, maintainer)
        return server.serve_many(entities)

    return harness.overhead_leg(
        "e27.unit", workload, "serve + refresh (instrumented, no chaos)", repeats
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, repeats: int) -> dict:
    # The refresh leg needs a base large enough for the O(n) recompute
    # to show over the per-delta fixed cost both sides pay (plan lookup,
    # executor entry): since the row store became one matrix the full
    # rebuild of 8 000 entities is ~2 ms a round, the same order as
    # folding three deltas.
    if quick:
        n, n_refresh, stream_len, rounds = 8_000, 40_000, 3_000, 4
        n_chaos, chaos_stream = 2_000, 1_500
    else:
        n, n_refresh, stream_len, rounds = 40_000, 40_000, 12_000, 6
        n_chaos, chaos_stream = 5_000, 4_000

    results = [
        parity_leg(n, stream_len),
        refresh_leg(n_refresh, rounds),
        gate_leg(n_chaos, passes=3),
    ]
    results.extend(chaos_leg(n_chaos, chaos_stream))
    overhead = overhead_leg(n_chaos, chaos_stream, rounds=3, repeats=repeats)

    parity, refresh, gate = results[:3]
    chaos_entries = [e for e in results if "fault_rate" in e]

    assert (
        parity["bit_identical"] and parity["ledger_exact"]
        and parity["parity_oracle"]
    ), (
        f"parity/online_offline: {parity['serves']:,} skewed online serves "
        f"bit-identical to the offline slice, serve ledger exact"
    )
    name = refresh["workload"]
    assert refresh["bit_identical"], (
        f"{name}: delta-refreshed feature rows bit-identical to full "
        f"rematerialization every round"
    )
    assert refresh["ledger_exact"], (
        f"{name}: fold ledger exact, {refresh['deltas_applied']} deltas, "
        f"{refresh['rows_folded']} rows folded == closed form"
    )
    assert refresh["recomputes"] == 0, (
        f"{name}: zero recomputes on the clean delta stream"
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
            f"{leg}: served bytes bit-identical to offline under faults"
        )
        assert e["fallbacks_match_faults"], (
            f"{leg}: {e['fallbacks']} fallbacks == {e['faults_injected']} "
            f"injected faults"
        )

    return {
        "meta": {
            **harness.bench_metadata("E27"),
            "quick": quick,
            "chaos_seed": chaos_seed_from_env(),
            "fault_rates": list(FAULT_RATES),
            "delta_fraction": DELTA_FRACTION,
            "min_refresh_speedup": MIN_REFRESH_SPEEDUP,
            "shift": SHIFT,
        },
        "results": results,
        "overhead": overhead,
        "summary": {
            "refresh_speedup": refresh["speedup"],
            "faults_injected_total": sum(
                e.get("faults_injected", 0) for e in results
            ),
            "gate_holds": gate["shifted"]["ledger"]["holds"],
            "gate_rollbacks": gate["shifted"]["ledger"]["rollbacks"],
            "disabled_overhead_pct": overhead["estimated_overhead_pct"],
        },
    }


def report(results: dict) -> None:
    meta = results["meta"]
    print(
        f"E27 — feature store "
        f"(cpus={meta['cpu_count']}, chaos_seed={meta['chaos_seed']})"
    )
    parity = results["results"][0]
    print(
        f"\n  online/offline parity: {parity['stream_len']:,} skewed serves "
        f"over {parity['n_entities']:,} entities "
        f"({parity['unique_entities']} unique)"
    )
    print(
        f"    bit-identical: {parity['bit_identical']}   "
        f"ledger exact: {parity['ledger_exact']}   "
        f"oracle: {parity['parity_oracle']}"
    )
    refresh = results["results"][1]
    print(
        f"\n  delta refresh: {refresh['rounds']} rounds x "
        f"{refresh['delta_rows_per_round']} delta rows over "
        f"{refresh['n_entities']:,} entities"
    )
    print(
        f"    incremental {refresh['incremental_wall_s'] * 1e3:8.1f} ms   "
        f"full {refresh['full_recompute_wall_s'] * 1e3:8.1f} ms   "
        f"speedup {refresh['speedup']:.1f}x "
        f"(floor {meta['min_refresh_speedup']:.0f}x)"
    )
    gate = results["results"][2]
    print(
        f"\n  drift gate: shift=+{meta['shift']:.0f} -> held="
        f"{gate['shifted']['held']} rolled_back="
        f"{gate['shifted']['rolled_back']} "
        f"(max psi {gate['shifted']['max_psi']:.2f}); "
        f"unshifted promoted v{gate['unshifted']['deployed_version']} "
        f"(max psi {gate['unshifted']['max_psi']:.3f})"
    )
    print(
        f"    ledger exact: {gate['ledger_exact']}   "
        f"oracle exact: {gate['oracle_exact']}"
    )
    print(f"\n{'workload':<30} {'rate':>6} {'faults':>7} {'fallbk':>7} "
          f"{'identical':>9}")
    for e in results["results"]:
        if "fault_rate" not in e:
            continue
        print(
            f"{e['workload']:<30} {e['fault_rate']:>6.0%} "
            f"{e['faults_injected']:>7} {e['fallbacks']:>7} "
            f"{str(e['identical']):>9}"
        )
    print()
    harness.report_overhead_leg(results["overhead"])


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__))
