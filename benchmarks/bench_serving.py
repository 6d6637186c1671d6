#!/usr/bin/env python3
"""E22 — Online serving: micro-batching, prediction cache, canary split.

Closed-loop load generator over :class:`repro.serving.ModelServer`. Four
legs, each asserted in ``run()``; ``check_regression.py`` holds the seeded
counts and the speedups against the committed baseline:

1. **Micro-batch throughput** — the same request stream served
   single-row (``max_batch_size=1``) and coalesced at batch sizes 8 and
   64. Batching amortizes the per-request Python toll into one
   vectorized kernel per batch; the acceptance bound is **>= 3x**
   throughput at batch 64. Because the compiled scorer accumulates
   columns in a fixed order, the batched answers are **bit-identical**
   to the single-row answers.
2. **Prediction cache** — a skewed entity stream (hot keys re-scored
   between model updates). Hits and misses are exactly countable from
   the stream: first sight of an entity misses, every repeat hits. Both
   checks compare exact counts, not ratios.
3. **Canary split** — 20% of 1,000 keyed requests routed by the
   deterministic hash router. The observed canary/stable counts must
   equal a fresh :class:`~repro.serving.CanaryRouter`'s assignment
   exactly — same seed, same split, on any machine.
4. **Admission control** — a burst of arrivals into a bounded queue
   without a drain in between: everything past the queue capacity sheds
   with :class:`~repro.errors.LoadShedError`, counted exactly; plus a
   seeded chaos plan on the ``serving.admission`` fault site whose
   injected shed count is deterministic.

Latency percentiles (p50/p95/p99) come from the endpoint's serving
ledger (``repro.obs`` histograms, one observation per call) and are
recorded per throughput entry beside ``latency_samples``, their count.

Usage::

    python benchmarks/bench_serving.py            # full sizes
    python benchmarks/bench_serving.py --quick    # CI smoke run
"""

from __future__ import annotations

import numpy as np

import harness
from repro import obs
from repro.data import make_classification
from repro.errors import LoadShedError
from repro.lifecycle import ModelRegistry
from repro.ml import LogisticRegression
from repro.resilience import ChaosContext, FaultPlan
from repro.serving import CanaryRouter, ModelServer

#: acceptance bounds
MIN_BATCH64_SPEEDUP = 3.0
CANARY_FRACTION = 0.2
CANARY_SEED = 2017
BATCH_SIZES = (1, 8, 64)


def fit_registry(n: int, d: int, seed: int = 2017) -> tuple:
    """Two versions of the ``churn`` model (E22 and E26 serve both)."""
    X, y = make_classification(n, d, separation=2.0, seed=seed)
    registry = ModelRegistry()
    m1 = LogisticRegression(max_iter=25).fit(X, y)
    m2 = LogisticRegression(max_iter=50, l2=0.5).fit(X, y)
    registry.register("churn", m1)
    registry.register("churn", m2)
    return X, registry


def _server(registry: ModelRegistry, **endpoint_config) -> ModelServer:
    server = ModelServer(registry)
    server.create_endpoint("score", "churn", **endpoint_config)
    server.promote("score", 1)
    return server


# ----------------------------------------------------------------------
# Leg 1: micro-batch throughput + bit identity
# ----------------------------------------------------------------------
def throughput_leg(X, registry, n_requests: int, repeats: int) -> list[dict]:
    """The same stream served at each batch size, one call per
    ``batch_size`` rows (the request path records one latency
    observation per call, so the percentiles rest on ``requests /
    batch_size`` samples per pass); speedups are relative to the
    single-row (batch-1) run of the same capture."""
    rows = np.tile(X, (n_requests // X.shape[0] + 1, 1))[:n_requests]
    entries = []
    reference = None  # batch-1 predictions: identity baseline
    unbatched_wall = None
    for batch_size in BATCH_SIZES:
        server = _server(
            registry, max_batch_size=batch_size, cache_enabled=False,
            queue_capacity=max(1024, n_requests),
        )

        def serve(server=server, batch_size=batch_size):
            if batch_size == 1:
                return np.array(
                    [server.predict("score", rows[i])
                     for i in range(n_requests)]
                )
            return np.concatenate(
                [
                    server.predict_many("score", rows[i:i + batch_size])
                    for i in range(0, n_requests, batch_size)
                ]
            )

        timing = harness.timed(serve, repeats)
        wall, predictions = timing.best, timing.result
        if batch_size == 1:
            reference = predictions
            unbatched_wall = wall
        stats = server.endpoint("score").stats()
        entries.append(
            {
                "workload": f"throughput/batch{batch_size}",
                "batch_size": batch_size,
                "requests": n_requests,
                **timing.fields("wall_s"),
                "rps": n_requests / wall,
                "speedup_vs_unbatched": unbatched_wall / wall,
                "bit_identical": bool(np.array_equal(predictions, reference)),
                "mean_batch_size": stats["mean_batch_size"],
                "latency_ms": stats["latency_ms"],
                "latency_samples": stats["latency_ms"]["count"],
            }
        )
        server.close()
    return entries


# ----------------------------------------------------------------------
# Leg 2: prediction cache on a skewed entity stream
# ----------------------------------------------------------------------
def cache_leg(X, registry, n_entities: int, n_requests: int, seed: int) -> dict:
    """Zipf-ish repeat traffic: expected hits are exactly countable."""
    rng = np.random.default_rng(seed)
    # Skew toward hot entities: square a uniform draw.
    entity_ids = (rng.random(n_requests) ** 2 * n_entities).astype(int)
    entity_rows = X[:n_entities]

    def stream_through(server):
        return harness.timed(
            lambda: [
                server.predict("score", entity_rows[e], key=f"entity-{e}")
                for e in entity_ids
            ],
            repeats=1,
        )

    server = _server(registry, cache_capacity=n_entities * 2)
    cached = stream_through(server)
    stats = server.endpoint("score").stats()["cache"]
    server.close()

    cold = _server(registry, cache_enabled=False)
    uncached = stream_through(cold)
    cold.close()

    expected_misses = len(set(entity_ids.tolist()))
    return {
        "workload": "cache/skewed_entities",
        "requests": n_requests,
        "entities": n_entities,
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_ratio": stats["hit_ratio"],
        "expected_misses": expected_misses,
        "counts_exact": stats["misses"] == expected_misses
        and stats["hits"] == n_requests - expected_misses,
        "cache_speedup": uncached.best / cached.best,
        **cached.fields("wall_cached_s"),
        **uncached.fields("wall_uncached_s"),
    }


# ----------------------------------------------------------------------
# Leg 3: canary split exactness
# ----------------------------------------------------------------------
def canary_leg(X, registry, n_requests: int) -> dict:
    server = _server(
        registry, cache_enabled=False, canary_seed=CANARY_SEED
    )
    server.set_canary("score", 2, fraction=CANARY_FRACTION)
    keys = [f"user-{i}" for i in range(n_requests)]
    rows = np.tile(X[0], (n_requests, 1))
    server.predict_many("score", rows, keys=keys)
    endpoint = server.endpoint("score")
    expected = sum(
        CanaryRouter(CANARY_FRACTION, CANARY_SEED).routes_to_canary(k)
        for k in keys
    )
    result = {
        "workload": "canary/hash_split",
        "requests": n_requests,
        "fraction": CANARY_FRACTION,
        "seed": CANARY_SEED,
        "canary_requests": endpoint.canary_requests,
        "stable_requests": endpoint.stable_requests,
        "expected_canary": expected,
        "exact_split": endpoint.canary_requests == expected
        and endpoint.stable_requests == n_requests - expected,
    }
    server.close()
    return result


# ----------------------------------------------------------------------
# Leg 4: admission control (queue bound + chaos site)
# ----------------------------------------------------------------------
def admission_leg(X, registry, burst: int, capacity: int, seed: int) -> dict:
    """An arrival burst with no drain sheds exactly burst - capacity;
    a seeded chaos plan on serving.admission sheds deterministically."""
    server = _server(
        registry, cache_enabled=False, queue_capacity=capacity
    )
    endpoint = server.endpoint("score")
    scorer = server._scorer_for(endpoint, registry.deployed("churn"))
    queue_shed = 0
    for i in range(burst):
        try:
            endpoint.batcher.submit(X[i % X.shape[0]], scorer, version=1)
        except LoadShedError:
            queue_shed += 1
    endpoint.batcher.flush()

    plan = FaultPlan(seed=seed).inject("serving.admission", rate=0.1)
    chaos_shed = 0
    with ChaosContext(plan) as chaos:
        for i in range(burst):
            try:
                server.predict("score", X[i % X.shape[0]])
            except LoadShedError:
                chaos_shed += 1
    injected = chaos.injected_at("serving.admission")
    server.close()
    return {
        "workload": "admission/bounded_queue",
        "burst": burst,
        "queue_capacity": capacity,
        "queue_shed": queue_shed,
        "queue_shed_exact": queue_shed == burst - capacity,
        "chaos_seed": seed,
        "chaos_shed": chaos_shed,
        "chaos_shed_matches_injected": chaos_shed == injected,
        "server_shed_total": endpoint.shed,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, repeats: int) -> dict:
    if quick:
        n, d, n_requests = 512, 8, 2_048
        n_entities, cache_requests = 64, 2_000
        canary_requests, burst, capacity = 1_000, 96, 64
    else:
        n, d, n_requests = 2_048, 12, 16_384
        n_entities, cache_requests = 256, 10_000
        canary_requests, burst, capacity = 5_000, 512, 256
    X, registry = fit_registry(n, d)

    obs.reset()
    results = throughput_leg(X, registry, n_requests, repeats)
    results.append(cache_leg(X, registry, n_entities, cache_requests, seed=7))
    results.append(canary_leg(X, registry, canary_requests))
    results.append(admission_leg(X, registry, burst, capacity, seed=7))

    by = {e["workload"]: e for e in results}
    for e in [e for e in results if "batch_size" in e]:
        lat = e["latency_ms"]
        assert e["bit_identical"], (
            f"{e['workload']}: bit-identical to single-row serving"
        )
        assert all(lat.get(p) is not None for p in ("p50", "p95", "p99")) and (
            lat["p50"] <= lat["p95"] <= lat["p99"]
        ), f"{e['workload']}: latency percentiles present and ordered ({lat})"
    batch64 = by["throughput/batch64"]
    assert batch64["speedup_vs_unbatched"] >= MIN_BATCH64_SPEEDUP, (
        f"throughput/batch64: speedup {batch64['speedup_vs_unbatched']:.2f} "
        f">= {MIN_BATCH64_SPEEDUP} (within-capture bound)"
    )
    assert by["canary/hash_split"]["exact_split"], (
        "canary/hash_split: canary split exactly matches the hash router"
    )
    cache = by["cache/skewed_entities"]
    assert cache["counts_exact"], (
        "cache/skewed_entities: hit/miss ledger exactly matches the stream"
    )
    assert cache["hit_ratio"] > 0.5, "the skewed stream barely repeats"
    admission = by["admission/bounded_queue"]
    assert admission["queue_shed_exact"], (
        f"admission/bounded_queue: burst past capacity shed exactly "
        f"burst - capacity (got {admission['queue_shed']})"
    )
    assert admission["chaos_shed_matches_injected"], (
        "admission/bounded_queue: chaos shed == injected faults"
    )

    return {
        "meta": {
            **harness.bench_metadata("E22"),
            "quick": quick,
            "batch_sizes": list(BATCH_SIZES),
            "canary_fraction": CANARY_FRACTION,
            "canary_seed": CANARY_SEED,
        },
        "results": results,
        "summary": {
            "batch64_speedup": batch64["speedup_vs_unbatched"],
            "batch64_rps": batch64["rps"],
            "bit_identical": batch64["bit_identical"],
        },
    }


def report(results: dict) -> None:
    meta = results["meta"]
    print(
        f"E22 — online serving "
        f"(cpus={meta['cpu_count']}, quick={meta['quick']})"
    )
    print(
        f"\n{'workload':<26} {'requests':>9} {'rps':>10} "
        f"{'speedup':>8} {'p50ms':>7} {'p99ms':>7} {'identical':>9}"
    )
    for e in results["results"]:
        if "batch_size" not in e:
            continue
        lat = e["latency_ms"]
        print(
            f"{e['workload']:<26} {e['requests']:>9,} {e['rps']:>10,.0f} "
            f"{e['speedup_vs_unbatched']:>7.2f}x "
            f"{lat['p50']:>7.3f} {lat['p99']:>7.3f} "
            f"{str(e['bit_identical']):>9}"
        )
    cache = next(
        e for e in results["results"]
        if e["workload"] == "cache/skewed_entities"
    )
    canary = next(
        e for e in results["results"] if e["workload"] == "canary/hash_split"
    )
    adm = next(
        e for e in results["results"]
        if e["workload"] == "admission/bounded_queue"
    )
    print(
        f"\n  cache: {cache['hits']:,} hits / {cache['misses']:,} misses "
        f"(ratio {cache['hit_ratio']:.2f}, exact={cache['counts_exact']}, "
        f"{cache['cache_speedup']:.2f}x vs uncached)"
    )
    print(
        f"  canary: {canary['canary_requests']}/{canary['requests']} at "
        f"fraction {canary['fraction']} (expected "
        f"{canary['expected_canary']}, exact={canary['exact_split']})"
    )
    print(
        f"  admission: burst {adm['burst']} into capacity "
        f"{adm['queue_capacity']} shed {adm['queue_shed']} "
        f"(exact={adm['queue_shed_exact']}); chaos shed {adm['chaos_shed']}"
    )
    print(
        f"  batch-64: {results['summary']['batch64_speedup']:.2f}x "
        f"(bound {MIN_BATCH64_SPEEDUP:.0f}x)  -> PASS"
    )


if __name__ == "__main__":
    raise SystemExit(harness.main(run, report, __doc__))
