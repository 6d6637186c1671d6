#!/usr/bin/env python3
"""E26 — Sharded serving fabric: failover, quotas, chaos, scaling.

Closed-loop load generator over :class:`repro.serving.ShardedServer`.
Seven legs, each asserted in ``run()``; ``check_regression.py`` holds the
seeded counts against the committed baseline:

1. **Fleet identity** — >= 10^6 skewed multi-tenant requests through a
   4-shard, 2-replica fleet must be **bit-identical** to a single
   :class:`~repro.serving.ModelServer` oracle, with the fleet ledger
   (``replica_hits``) matching an exact replay of the pure routing
   function.
2. **Mid-stream kill** — the home shard is killed at the stream's
   midpoint and revived at 75%: zero wrong answers, ``failovers`` /
   ``rerouted`` / ``replica_hits`` equal to the route-oracle replay, and
   the revive's epoch cache invalidation counted exactly.
3. **Tenant quotas** — a hot tenant bursting through its token bucket
   sheds exactly the overflow the bucket arithmetic predicts (fake
   clock, deterministic refill); cold tenants shed nothing.
4. **Fleet canary** — a 20% canary split across all replicas equals a
   fresh :class:`~repro.serving.CanaryRouter`'s assignment exactly.
5. **Chaos sweep** — 0/5/20% fault rates on the ``fabric.route`` and
   ``fabric.score`` sites: every request completes (retry + failover)
   and the answers stay bit-identical to the clean run.
6. **Single-shard overhead** — a 1-shard, 1-replica fabric on the same
   stream as a plain ``ModelServer``, the two alternating call by call:
   the fabric toll must stay under ``MAX_OVERHEAD_PCT`` (the fast path
   delegates wholesale).
7. **Shard scaling** — the same uniform keyed stream over 1/2/4 shards.
   On a single-CPU builder wall-clock cannot scale, so the gated proxy
   is deterministic *load balance*: no shard serves more than
   ``1 + BALANCE_TOL`` times its fair share. Throughput is recorded as
   informational.

Usage::

    python benchmarks/bench_sharding.py            # full sizes
    python benchmarks/bench_sharding.py --quick    # CI smoke run
"""

from __future__ import annotations

from functools import partial

import numpy as np

import harness
from bench_serving import fit_registry
from repro import obs
from repro.resilience import (
    ChaosContext,
    FaultPlan,
    RetryPolicy,
    chaos_seed_from_env,
)
from repro.serving import CanaryRouter, ModelServer, ShardedServer

#: acceptance bounds
MAX_OVERHEAD_PCT = 3.0
BALANCE_TOL = 0.25
NUM_SHARDS = 4
REPLICATION = 2
CANARY_FRACTION = 0.2
CANARY_SEED = 2017
CHAOS_RATES = (0.0, 0.05, 0.20)
SCALING_FLEETS = (1, 2, 4)
#: the overhead leg's call size and its untimed warm-up calls
CALL_ROWS = 64
WARMUP_CALLS = 200


class _FakeClock:
    """Manually advanced clock: token-bucket refills become exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _fabric(registry, num_shards=NUM_SHARDS, replication=REPLICATION, **kw):
    endpoint_config = kw.pop("endpoint_config", {})
    config = {"cache_enabled": True, "queue_capacity": 1 << 17}
    config.update(endpoint_config)
    fabric = ShardedServer(
        registry, num_shards=num_shards, replication=replication, **kw
    )
    fabric.create_endpoint("score", "churn", **config)
    fabric.promote("score", 1)
    return fabric


def _single(registry, **endpoint_config) -> ModelServer:
    endpoint_config.setdefault("cache_enabled", True)
    endpoint_config.setdefault("queue_capacity", 1 << 17)
    server = ModelServer(registry)
    server.create_endpoint("score", "churn", **endpoint_config)
    server.promote("score", 1)
    return server


def _skewed_stream(X, n_requests: int, n_entities: int, seed: int):
    """Skewed entity traffic: square a uniform draw so hot entities
    dominate (the regime where per-replica caches matter)."""
    rng = np.random.default_rng(seed)
    ids = (rng.random(n_requests) ** 2 * n_entities).astype(int)
    rows = X[ids % X.shape[0]]
    keys = [f"entity-{e}" for e in ids]
    return ids, rows, keys


def _no_sleep_retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=12, backoff_base=0.0, jitter=0.0, sleep=lambda s: None
    )


# ----------------------------------------------------------------------
# Leg 1: fleet identity at >= 10^6 multi-tenant requests
# ----------------------------------------------------------------------
def fleet_leg(
    X, registry, n_requests: int, n_entities: int, n_tenants: int, seed: int
) -> dict:
    ids, rows, keys = _skewed_stream(X, n_requests, n_entities, seed)
    tenants = [f"tenant-{i % n_tenants}" for i in range(n_requests)]

    oracle = _single(registry)
    oracle_timing = harness.timed(
        lambda: oracle.predict_many("score", rows, keys=keys), repeats=1
    )
    reference = oracle_timing.result
    oracle.close()

    fabric = _fabric(registry)
    timing = harness.timed(
        lambda: fabric.predict_many("score", rows, keys=keys, tenants=tenants),
        repeats=1,
    )
    served, wall = timing.result, timing.best

    # replay the pure routing function per unique key (all shards live:
    # replica_hits = requests whose rotation starts off the home shard)
    home = fabric.replicas_of("score")[0]
    unique, counts = np.unique(ids, return_counts=True)
    expected_replica_hits = int(
        sum(
            int(c)
            for e, c in zip(unique, counts)
            if fabric.preference("score", f"entity-{e}")[0] != home
        )
    )
    led = fabric.stats()["ledger"]
    entry = {
        "workload": "fleet/multitenant",
        "requests": n_requests,
        "entities": n_entities,
        "tenants": n_tenants,
        "shards": NUM_SHARDS,
        "replication": REPLICATION,
        "bit_identical": bool(np.array_equal(served, reference)),
        "ledger": led,
        "expected_replica_hits": expected_replica_hits,
        "ledger_exact": led["replica_hits"] == expected_replica_hits
        and led["requests"] == n_requests
        and led["failovers"] == 0
        and led["quota_shed"] == 0,
        "rps": n_requests / wall,
        **timing.fields("wall_s"),
        **oracle_timing.fields("oracle_wall_s"),
    }
    fabric.close()
    return entry


# ----------------------------------------------------------------------
# Leg 2: mid-stream kill and epoch revive
# ----------------------------------------------------------------------
def failover_leg(
    X, registry, n_requests: int, n_entities: int, seed: int
) -> dict:
    ids, rows, keys = _skewed_stream(X, n_requests, n_entities, seed)

    oracle = _single(registry)
    reference = oracle.predict_many("score", rows, keys=keys)
    oracle.close()

    fabric = _fabric(registry)
    home = fabric.replicas_of("score")[0]  # the victim
    kill_at, revive_at = n_requests // 2, (3 * n_requests) // 4

    served = np.empty(n_requests, dtype=np.float64)
    served[:kill_at] = fabric.predict_many(
        "score", rows[:kill_at], keys=keys[:kill_at]
    )
    fabric.kill_shard(home)
    served[kill_at:revive_at] = fabric.predict_many(
        "score", rows[kill_at:revive_at], keys=keys[kill_at:revive_at]
    )
    dropped = fabric.revive_shard(home)
    served[revive_at:] = fabric.predict_many(
        "score", rows[revive_at:], keys=keys[revive_at:]
    )

    # oracle replay of the ledger: preference() is pure, liveness is
    # known per phase. Dead phase: every request whose rotation starts
    # on the victim fails over (one skip); every request is served off
    # the home shard.
    homed = {
        int(e): fabric.preference("score", f"entity-{e}")[0] == home
        for e in np.unique(ids)
    }
    dead_ids = ids[kill_at:revive_at]
    live_ids = np.concatenate([ids[:kill_at], ids[revive_at:]])
    expected_failovers = int(sum(homed[int(e)] for e in dead_ids))
    expected_replica_hits = len(dead_ids) + int(
        sum(not homed[int(e)] for e in live_ids)
    )
    led = fabric.stats()["ledger"]
    entry = {
        "workload": "failover/mid_stream_kill",
        "requests": n_requests,
        "kill_at": kill_at,
        "revive_at": revive_at,
        "victim": home,
        "wrong_answers": int(np.count_nonzero(served != reference)),
        "expected_failovers": expected_failovers,
        "failovers": led["failovers"],
        "rerouted": led["rerouted"],
        "replica_hits": led["replica_hits"],
        "expected_replica_hits": expected_replica_hits,
        "ledger_exact": led["failovers"] == expected_failovers
        and led["rerouted"] == expected_failovers
        and led["replica_hits"] == expected_replica_hits,
        "revive_dropped": dropped,
        "epoch_invalidations": led["epoch_invalidations"],
        "epoch_after": fabric.shard(home).epoch,
    }
    fabric.close()
    return entry


# ----------------------------------------------------------------------
# Leg 3: per-tenant token-bucket quotas
# ----------------------------------------------------------------------
def quota_leg(
    X,
    registry,
    waves: int,
    hot_burst: int,
    cold_burst: int,
    capacity: float,
    refill_per_s: float,
    gap_s: float,
) -> dict:
    """A hot tenant bursts ``hot_burst`` requests per wave against a
    ``capacity``-token bucket refilling at ``refill_per_s``; expected
    sheds come from replaying the bucket arithmetic exactly."""
    clock = _FakeClock()
    fabric = _fabric(registry, clock=clock)
    fabric.set_quota("hot", capacity=capacity, refill_per_s=refill_per_s)

    # exact replay of the token arithmetic the bucket performs
    tokens = capacity
    expected_shed = 0
    for wave in range(waves):
        if wave:
            tokens = min(capacity, tokens + refill_per_s * gap_s)
        for _ in range(hot_burst):
            if tokens >= 1.0:
                tokens -= 1.0
            else:
                expected_shed += 1

    cold = ["cold-a", "cold-b", "cold-c"]
    shed_total = 0
    for wave in range(waves):
        if wave:
            clock.advance(gap_s)
        burst_rows = np.tile(X[0], (hot_burst + cold_burst * len(cold), 1))
        tenants = ["hot"] * hot_burst + [
            t for t in cold for _ in range(cold_burst)
        ]
        _, shed = fabric.predict_many(
            "score", burst_rows, tenants=tenants, on_shed="null"
        )
        shed_total += len(shed)

    stats = fabric.stats()
    hot = stats["tenants"]["hot"]
    cold_shed = sum(stats["tenants"][t]["shed"] for t in cold)
    entry = {
        "workload": "quota/hot_tenant",
        "waves": waves,
        "hot_burst": hot_burst,
        "capacity": capacity,
        "refill_per_s": refill_per_s,
        "gap_s": gap_s,
        "hot_admitted": hot["admitted"],
        "hot_shed": hot["shed"],
        "expected_hot_shed": expected_shed,
        "cold_shed": cold_shed,
        "quota_exact": hot["shed"] == expected_shed
        and shed_total == expected_shed
        and cold_shed == 0
        and stats["ledger"]["quota_shed"] == expected_shed,
    }
    fabric.close()
    return entry


# ----------------------------------------------------------------------
# Leg 4: fleet-wide canary split
# ----------------------------------------------------------------------
def canary_leg(X, registry, n_requests: int) -> dict:
    fabric = _fabric(
        registry,
        endpoint_config={"canary_seed": CANARY_SEED, "cache_enabled": False},
    )
    fabric.set_canary("score", 2, fraction=CANARY_FRACTION)
    keys = [f"user-{i}" for i in range(n_requests)]
    rows = np.tile(X[0], (n_requests, 1))
    fabric.predict_many("score", rows, keys=keys)
    router = CanaryRouter(CANARY_FRACTION, CANARY_SEED)
    expected = sum(router.routes_to_canary(k) for k in keys)
    observed = sum(
        fabric.shard(sid).server.endpoint("score").canary_requests
        for sid in fabric.replicas_of("score")
    )
    stable = sum(
        fabric.shard(sid).server.endpoint("score").stable_requests
        for sid in fabric.replicas_of("score")
    )
    entry = {
        "workload": "canary/fleet_split",
        "requests": n_requests,
        "fraction": CANARY_FRACTION,
        "seed": CANARY_SEED,
        "canary_requests": observed,
        "expected_canary": expected,
        "exact_split": observed == expected
        and stable == n_requests - expected,
    }
    fabric.close()
    return entry


# ----------------------------------------------------------------------
# Leg 5: chaos sweep over the fabric fault sites
# ----------------------------------------------------------------------
def chaos_leg(
    X, registry, n_requests: int, n_entities: int, seed: int
) -> list[dict]:
    _, rows, keys = _skewed_stream(X, n_requests, n_entities, seed=11)

    clean = _fabric(registry)
    reference = clean.predict_many("score", rows, keys=keys)
    clean.close()

    entries = []
    for rate in CHAOS_RATES:
        fabric = _fabric(registry, retry=_no_sleep_retry())
        plan = (
            FaultPlan(seed=seed)
            .inject("fabric.route", rate=rate)
            .inject("fabric.score", rate=rate)
        )
        with ChaosContext(plan) as chaos:
            served = fabric.predict_many("score", rows, keys=keys)
        injected_route = chaos.injected_at("fabric.route")
        injected_score = chaos.injected_at("fabric.score")
        led = fabric.stats()["ledger"]
        entries.append(
            {
                "workload": f"chaos/rate{int(rate * 100):02d}",
                "rate": rate,
                "requests": n_requests,
                "chaos_seed": seed,
                "complete": bool(np.isfinite(served).all())
                and led["requests"] == n_requests,
                "bit_identical": bool(np.array_equal(served, reference)),
                "injected_route": injected_route,
                "injected_score": injected_score,
                "failovers": led["failovers"],
                "faults_injected": (rate == 0.0)
                == (injected_route + injected_score == 0),
            }
        )
        fabric.close()
    return entries


# ----------------------------------------------------------------------
# Leg 6: single-shard overhead
# ----------------------------------------------------------------------
def overhead_leg(
    X, registry, n_requests: int, n_entities: int, repeats: int
) -> dict:
    """The fabric's toll when sharding buys nothing: a 1-shard,
    1-replica fleet wholesale-delegates (fast path), so the overhead on
    an identical stream must stay under ``MAX_OVERHEAD_PCT``. Timing
    the whole stream per server read anywhere from -39 % to +55 % on a
    busy 2-CPU box (the first call of each is a cold cache fill), so
    after ``WARMUP_CALLS`` untimed calls the two servers alternate call
    by call in ``CALL_ROWS``-row calls (``serve_hot``'s shape). Each
    call keeps its best wall over the passes, so a stall that hits one
    pass drops out, and the overhead compares the two sums of bests."""
    _, rows, keys = _skewed_stream(X, n_requests, n_entities, seed=13)
    plain = _single(registry)
    fabric = _fabric(registry, num_shards=1, replication=1)
    pairs = [
        [
            partial(server.predict_many, "score", rows[i:i + CALL_ROWS],
                    keys=keys[i:i + CALL_ROWS])
            for server in (plain, fabric)
        ]
        for i in range(0, n_requests, CALL_ROWS)
    ]
    for pair in pairs[:WARMUP_CALLS]:
        for call in pair:
            call()
    walls = np.empty((repeats, 2, len(pairs)))  # pass, side, call
    answers = ([], [])
    for p in range(repeats):
        for k, pair in enumerate(pairs):
            # the first call of a pair reads cold rows: take turns
            for side in ((0, 1), (1, 0))[k % 2]:
                timing = harness.timed(pair[side], repeats=1)
                walls[p, side, k] = timing.best
                answers[side].append(timing.result)
    plain.close()
    fabric.close()

    wall_plain, wall_fabric = walls.min(axis=0).sum(axis=1).tolist()
    overhead_pct = (wall_fabric / wall_plain - 1.0) * 100.0
    return {
        "workload": "overhead/single_shard",
        "requests": n_requests,
        "wall_plain_s": wall_plain,
        "wall_fabric_s": wall_fabric,
        "overhead_pct": overhead_pct,
        "bit_identical": bool(
            np.array_equal(np.concatenate(answers[0]), np.concatenate(answers[1]))
        ),
        "overhead_ok": overhead_pct < MAX_OVERHEAD_PCT,
    }


# ----------------------------------------------------------------------
# Leg 7: shard scaling (balance is the deterministic proxy)
# ----------------------------------------------------------------------
def scaling_leg(X, registry, n_requests: int) -> list[dict]:
    """The same uniform keyed stream over growing fleets. A single-CPU
    builder cannot show wall-clock scaling (every shard shares the
    interpreter), so the gate is the deterministic placement property:
    max shard load <= fair share * (1 + BALANCE_TOL). With one replica
    per endpoint the whole endpoint lives on one shard, so balance is
    measured with R=2 key spreading on fleets of >= 2."""
    rng = np.random.default_rng(17)
    ids = rng.integers(0, 100_000, size=n_requests)
    rows = X[ids % X.shape[0]]
    keys = [f"u{e}" for e in ids]

    entries = []
    for num_shards in SCALING_FLEETS:
        replication = min(2, num_shards)
        fabric = _fabric(
            registry, num_shards=num_shards, replication=replication
        )
        timing = harness.timed(
            lambda: fabric.predict_many("score", rows, keys=keys), repeats=1
        )
        loads = [
            fabric.shard(sid).served
            for sid in fabric.replicas_of("score")
        ]
        fair = n_requests / len(loads)
        entries.append(
            {
                "workload": f"scaling/shards{num_shards}",
                "shards": num_shards,
                "replication": replication,
                "requests": n_requests,
                "rps": n_requests / timing.best,
                **timing.fields("wall_s"),
                "shard_loads": loads,
                "balance_ratio": max(loads) / fair,
                "balanced": max(loads) <= fair * (1.0 + BALANCE_TOL),
            }
        )
        fabric.close()
    return entries


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, repeats: int) -> dict:
    chaos_seed = chaos_seed_from_env()
    if quick:
        fleet_requests, fleet_entities, fleet_tenants = 1_000_000, 4_096, 8
        failover_requests, failover_entities = 120_000, 2_048
        canary_requests = 50_000
        chaos_requests, chaos_entities = 20_000, 1_024
        overhead_requests, overhead_entities = 200_000, 4_096
        scaling_requests = 100_000
    else:
        fleet_requests, fleet_entities, fleet_tenants = 2_000_000, 8_192, 16
        failover_requests, failover_entities = 400_000, 4_096
        canary_requests = 200_000
        chaos_requests, chaos_entities = 50_000, 2_048
        overhead_requests, overhead_entities = 500_000, 8_192
        scaling_requests = 250_000
    X, registry = fit_registry(4_096, 12)

    obs.reset()
    results = [
        fleet_leg(
            X, registry, fleet_requests, fleet_entities, fleet_tenants, seed=7
        ),
        failover_leg(X, registry, failover_requests, failover_entities, seed=9),
        quota_leg(
            X,
            registry,
            waves=5,
            hot_burst=100,
            cold_burst=40,
            capacity=50,
            refill_per_s=10.0,
            gap_s=2.0,
        ),
        canary_leg(X, registry, canary_requests),
    ]
    results.extend(
        chaos_leg(X, registry, chaos_requests, chaos_entities, chaos_seed)
    )
    results.append(
        overhead_leg(X, registry, overhead_requests, overhead_entities, repeats)
    )
    results.extend(scaling_leg(X, registry, scaling_requests))

    by = {e["workload"]: e for e in results}
    fleet = by["fleet/multitenant"]
    assert fleet["bit_identical"], (
        f"fleet/multitenant: {fleet['requests']:,} fleet requests "
        f"bit-identical to the single-server oracle"
    )
    assert fleet["ledger_exact"], (
        f"fleet/multitenant: fleet ledger exact, replica hits "
        f"{fleet['ledger']['replica_hits']:,} == route-oracle replay "
        f"{fleet['expected_replica_hits']:,}"
    )
    failover = by["failover/mid_stream_kill"]
    assert failover["wrong_answers"] == 0, (
        "failover/mid_stream_kill: mid-stream kill produced zero wrong answers"
    )
    assert failover["ledger_exact"], (
        f"failover/mid_stream_kill: failover ledger exact, "
        f"{failover['failovers']:,} failovers == "
        f"{failover['expected_failovers']:,} expected from route replay"
    )
    assert failover["epoch_invalidations"] == failover["revive_dropped"] > 0, (
        f"failover/mid_stream_kill: revive invalidated exactly the "
        f"{failover['revive_dropped']:,} entries the epoch ledger counted"
    )
    assert failover["epoch_after"] == 1, (
        "failover/mid_stream_kill: revive bumped the shard epoch to 1"
    )
    quota = by["quota/hot_tenant"]
    assert quota["quota_exact"] and quota["hot_shed"] > 0, (
        f"quota/hot_tenant: hot tenant shed {quota['hot_shed']} == "
        f"token-bucket replay {quota['expected_hot_shed']} > 0"
    )
    assert quota["cold_shed"] == 0, (
        "quota/hot_tenant: cold tenants shed nothing (isolation holds)"
    )
    assert by["canary/fleet_split"]["exact_split"], (
        "canary/fleet_split: fleet canary split exactly matches the hash router"
    )
    for rate in CHAOS_RATES:
        name = f"chaos/rate{int(rate * 100):02d}"
        assert by[name]["complete"], (
            f"{name}: every request completed under fault injection"
        )
        assert by[name]["bit_identical"], (
            f"{name}: answers bit-identical to the clean run"
        )
        assert by[name]["faults_injected"], (
            f"{name}: fault plan active exactly when rate > 0"
        )
    overhead = by["overhead/single_shard"]
    assert overhead["bit_identical"], (
        "overhead/single_shard: fast path bit-identical to the plain server"
    )
    assert overhead["overhead_ok"], (
        f"overhead/single_shard: overhead {overhead['overhead_pct']:.2f}% < "
        f"{MAX_OVERHEAD_PCT:.0f}% (within-capture bound)"
    )
    for num_shards in SCALING_FLEETS[1:]:
        name = f"scaling/shards{num_shards}"
        assert by[name]["balanced"], (
            f"{name}: max load {by[name]['balance_ratio']:.2f}x fair share "
            f"<= {1 + BALANCE_TOL:.2f}x"
        )

    return {
        "meta": {
            **harness.bench_metadata("E26"),
            "quick": quick,
            "num_shards": NUM_SHARDS,
            "replication": REPLICATION,
            "chaos_rates": list(CHAOS_RATES),
            "chaos_seed": chaos_seed,
            "canary_fraction": CANARY_FRACTION,
            "canary_seed": CANARY_SEED,
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "balance_tol": BALANCE_TOL,
        },
        "results": results,
        "summary": {
            "fleet_rps": fleet["rps"],
            "fleet_bit_identical": fleet["bit_identical"],
            "failover_exact": failover["ledger_exact"],
            "quota_exact": by["quota/hot_tenant"]["quota_exact"],
            "overhead_pct": overhead["overhead_pct"],
        },
    }


def report(results: dict) -> None:
    meta = results["meta"]
    by = {e["workload"]: e for e in results["results"]}
    print(
        f"E26 — sharded serving fabric "
        f"(cpus={meta['cpu_count']}, quick={meta['quick']}, "
        f"shards={meta['num_shards']}, R={meta['replication']})"
    )
    fleet = by["fleet/multitenant"]
    print(
        f"\n  fleet: {fleet['requests']:,} requests, {fleet['tenants']} "
        f"tenants -> {fleet['rps']:,.0f} rps, "
        f"bit_identical={fleet['bit_identical']}, "
        f"replica_hits={fleet['ledger']['replica_hits']:,} "
        f"(expected {fleet['expected_replica_hits']:,})"
    )
    fo = by["failover/mid_stream_kill"]
    print(
        f"  failover: kill {fo['victim']} at {fo['kill_at']:,}, revive at "
        f"{fo['revive_at']:,}: wrong_answers={fo['wrong_answers']}, "
        f"failovers={fo['failovers']:,} (expected "
        f"{fo['expected_failovers']:,}), epoch invalidated "
        f"{fo['epoch_invalidations']:,} entries"
    )
    quota = by["quota/hot_tenant"]
    print(
        f"  quota: hot tenant shed {quota['hot_shed']} of "
        f"{quota['waves'] * quota['hot_burst']} (expected "
        f"{quota['expected_hot_shed']}), cold shed {quota['cold_shed']} "
        f"-> exact={quota['quota_exact']}"
    )
    canary = by["canary/fleet_split"]
    print(
        f"  canary: {canary['canary_requests']:,}/{canary['requests']:,} "
        f"at fraction {canary['fraction']} (expected "
        f"{canary['expected_canary']:,}, exact={canary['exact_split']})"
    )
    print(f"\n  {'chaos rate':<12} {'injected':>9} {'failovers':>10} "
          f"{'identical':>10}")
    for rate in meta["chaos_rates"]:
        entry = by[f"chaos/rate{int(rate * 100):02d}"]
        injected = entry["injected_route"] + entry["injected_score"]
        print(
            f"  {entry['rate']:<12} {injected:>9,} "
            f"{entry['failovers']:>10,} {str(entry['bit_identical']):>10}"
        )
    overhead = by["overhead/single_shard"]
    print(
        f"\n  overhead: fabric {overhead['wall_fabric_s']:.3f}s vs plain "
        f"{overhead['wall_plain_s']:.3f}s -> "
        f"{overhead['overhead_pct']:+.2f}% "
        f"(bound {meta['max_overhead_pct']:.0f}%)"
    )
    print(f"  {'fleet':<10} {'rps':>10} {'balance':>8}")
    for num_shards in SCALING_FLEETS:
        entry = by[f"scaling/shards{num_shards}"]
        print(
            f"  {num_shards:<10} {entry['rps']:>10,.0f} "
            f"{entry['balance_ratio']:>7.2f}x"
        )
    print("  -> PASS")


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__))
