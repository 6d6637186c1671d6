"""The one count ledger: every field of every ledger reaches ``repro.obs``.

One scripted run drives each ledgered layer through its events, then
holds ``registry.value("<prefix>.<field>")`` to the sum of that field
over the instances counting under the prefix — for *every* field, so a
newly added field can never be left unmirrored the way
``fabric.failovers`` and ``injected_faults`` were.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.compiler import PlanCache
from repro.distributed import (
    SimulatedCluster,
    train_model_averaging,
    train_parameter_server,
)
from repro.errors import LoadShedError, PromotionHeldError
from repro.features import (
    DriftGate,
    FeatureStore,
    FeatureView,
    FeatureViewMaintainer,
    OnlineFeatureServer,
)
from repro.incremental import (
    ContinuousTrainer,
    DynamicTable,
    IncrementalMaintainer,
)
from repro.lang.dsl import matrix, sumall
from repro.lifecycle import ModelRegistry
from repro.materialize import Fingerprint, MaterializationStore
from repro.ml import LinearRegression
from repro.ml.losses import SquaredLoss
from repro.obs import Counted, Ledger, get_registry
from repro.resilience import ChaosContext, FaultPlan, RetryPolicy
from repro.runtime import BlockStore, BufferPool, ParallelContext
from repro.serving import ModelServer, ShardedServer
from repro.storage import Table


class TestLedger:
    def test_inc_lands_on_instance_and_registry(self):
        a, b = Ledger("t.led", ("x", "y")), Ledger("t.led", ("x", "y"))
        a.inc("x")
        a.inc("y", 5)
        b.inc("x", 2)
        assert (a.x, a.y, b.x, b.y) == (1, 5, 2, 0)
        assert a.as_dict() == {"x": 1, "y": 5}
        assert get_registry().value("t.led.x") == 3  # summed over instances
        assert get_registry().value("t.led.y") == 5

    def test_only_inc_writes(self):
        ledger = Ledger("t.led", ("x",))
        with pytest.raises(AttributeError):
            ledger.x = 3
        with pytest.raises(AttributeError):
            _ = ledger.never_declared
        with pytest.raises(KeyError):
            ledger.inc("never_declared")
        assert "t.led.never_declared" not in get_registry().names()

    def test_hit_ratio_only_where_hits_and_misses_exist(self):
        cache = Ledger("t.led", ("hits", "misses"))
        assert cache.hit_ratio == 0.0
        cache.inc("hits", 3)
        cache.inc("misses")
        assert cache.hit_ratio == 0.75
        with pytest.raises(AttributeError):
            _ = Ledger("t.led", ("requests",)).hit_ratio

    def test_survives_a_registry_reset(self):
        ledger = Ledger("t.led", ("x",))
        ledger.inc("x")
        get_registry().reset()
        ledger.inc("x")
        assert ledger.x == 2  # the instance keeps its exact count
        assert get_registry().value("t.led.x") == 1

    def test_owner_reads_fields_as_attributes(self):
        class Owner(Counted):
            def __init__(self):
                self.counts = Ledger("t.owner", ("served",))

        owner = Owner()
        owner.counts.inc("served", 4)
        assert owner.served == 4
        owner.served_by = "tracer"  # owners stay setattr-able
        with pytest.raises(AttributeError):
            _ = owner.missing

    def test_concurrent_incs_lose_nothing(self):
        import sys

        ledger = Ledger("t.race", ("x",))
        n_threads, per_thread = 8, 5_000

        def work():
            for _ in range(per_thread):
                ledger.inc("x")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert ledger.x == n_threads * per_thread
        assert get_registry().value("t.race.x") == n_threads * per_thread


# ----------------------------------------------------------------------
# Every field of every ledger == the registry
# ----------------------------------------------------------------------
def _events_table(n, seed):
    rng = np.random.default_rng(seed)
    return Table.from_columns({
        "entity": np.arange(seed * 10_000, seed * 10_000 + n),
        "f0": rng.normal(size=n),
        "f1": rng.normal(size=n),
        "label": rng.normal(size=n),
    })


def _compiler(ledgers):
    plans = PlanCache(capacity=1)
    small, big = sumall(matrix("X", (3, 3))), sumall(matrix("X", (4, 4)))
    for expr in (small, small, big):  # miss, hit, miss + eviction
        plans.get_or_compile(expr)
    ledgers.append(("plancache", plans.stats))


def _runtime_and_materialize(ledgers, directory):
    blocks = BlockStore()
    for i in range(3):
        blocks.write(f"b{i}", np.full(10, float(i)))
    blocks.register_lineage("b0", lambda: np.full(10, 0.0))
    pool = BufferPool(blocks, capacity_bytes=160)
    for block in ("b0", "b1", "b1", "b2"):  # 3 misses, 1 hit, 1 eviction
        pool.get(block)
    blocks.corrupt("b0")
    pool.get("b0")  # detected, repaired from lineage
    ledgers += [("blockstore", blocks.counts), ("bufferpool", pool.stats)]

    store = MaterializationStore(directory, capacity_bytes=1000, min_flops=10.0)
    a, b = Fingerprint("a", (), ""), Fingerprint("b", (), "")
    store.put(a, np.ones((10, 10)), flops=100.0)
    store.put(Fingerprint("cheap", (), ""), np.ones(2), flops=1.0)  # rejected
    store.lookup(a)  # memory hit
    store.put(b, np.ones((10, 10)), flops=100.0)  # evicts a from memory
    store.lookup(a)  # disk hit
    store.corrupt(b)
    store.lookup(b)  # corrupt entry -> miss
    store.put(b, np.ones((10, 10)), flops=100.0)  # recompute
    store.lookup(Fingerprint("never", (), ""))
    ledgers += [("materialize", store.counts), ("bufferpool", store.pool.stats)]
    assert min(store.counts.as_dict().values()) > 0  # every field moved


def _features(ledgers):
    table = _events_table(40, 3)
    view = FeatureView("v", "entity", {"g": lambda c: c.f0 * c.f1})
    offline = FeatureStore()
    features = offline.materialize(view, table)
    offline.materialize(view, table)  # hit
    online = OnlineFeatureServer(view, features, table)
    entities = table.column("entity").tolist()
    with ChaosContext(FaultPlan(seed=7).inject("features.serve", rate=0.5)):
        online.serve_many(entities)
    online.parity_check(entities[:5])
    ledgers += [
        ("features.offline", offline.counts),
        ("features", online.counts),
        # the feature store parks its columns in a store of its own
        ("materialize", offline.store.counts),
        ("bufferpool", offline.store.pool.stats),
    ]
    assert online.fallbacks > 0

    dyn = DynamicTable.from_table(table, name="rows")
    refresher = FeatureViewMaintainer(view, dyn, dyn.subscribe())
    dyn.insert(_events_table(5, 4))
    dyn.delete(dyn.row_ids[:3])
    refresher.drain()
    refresher.parity_check()
    ledgers.append(("features.refresh", refresher.stats))
    # every compute above went through the view's plan cache
    ledgers.append(("plancache", view.plan_cache.stats))
    assert view.plan_cache.stats.hits > 0

    registry = ModelRegistry()
    for _ in range(2):
        registry.register("m", None, feature_fingerprint=view.version)
    server = ModelServer(registry)
    server.create_endpoint("ep", "m")
    gate = DriftGate(view, features, min_observations=10)
    server.set_promotion_gate("ep", gate)
    gate.observe_many(features.matrix())
    server.promote("ep", 1)
    server.set_canary("ep", 2, 0.5)
    gate.observe_many(features.matrix() + 100.0)  # the stream shifts
    with pytest.raises(PromotionHeldError):
        server.promote("ep", 2)  # held, canary rolled back
    ledgers.append(("features.gate", gate.counts))
    assert min(gate.ledger().values()) > 0  # every field moved


def _incremental(ledgers):
    dyn = DynamicTable.from_table(_events_table(60, 5), name="events")
    stream = dyn.subscribe()
    maintainer = IncrementalMaintainer(dyn, stream, ["f0", "f1"], "label")
    trainer = ContinuousTrainer(maintainer, ModelRegistry(), refresh_every=1)
    with ChaosContext(FaultPlan(seed=7).inject("incremental.apply", rate=0.4)):
        for i in range(8):
            dyn.insert(_events_table(4, 10 + i))
            dyn.delete(dyn.row_ids[:2])
            maintainer.drain()
    with ChaosContext(FaultPlan(seed=7).inject(
        "incremental.apply", rate=0.5, mode="corrupt"
    )):
        for i in range(6):
            dyn.insert(_events_table(4, 30 + i))
            maintainer.drain()
    dyn.insert(_events_table(4, 50))
    stream.drop_next()  # lost in transit: the next delta shows a gap
    dyn.insert(_events_table(4, 51))
    dyn.insert(_events_table(4, 52))  # already covered by the recompute
    trainer.step()
    maintainer.checkpoint_parity()
    ledgers += [("incremental", maintainer.stats), ("incremental", trainer.counts)]
    assert min(maintainer.stats.as_dict().values()) > 0  # every field moved
    assert trainer.refreshes == 1


def _serving(ledgers):
    clock = _Clock()
    rng = np.random.default_rng(6)
    X = rng.normal(size=(64, 4))
    registry = ModelRegistry()
    registry.register("m", LinearRegression().fit(X, X @ np.arange(1.0, 5.0)))
    registry.register("m", LinearRegression().fit(X, X @ np.arange(2.0, 6.0)))
    fabric = ShardedServer(
        registry, num_shards=3, replication=2, seed=1, clock=clock
    )
    fabric.create_endpoint(
        "score", "m", cache_capacity=8, queue_capacity=1
    )
    fabric.promote("score", 1)
    fabric.set_canary("score", 2, 0.5)
    fabric.set_quota("metered", capacity=40, refill_per_s=0.0)
    keys = [f"k{i}" for i in range(64)]
    tenants = ["metered"] * 48 + [None] * 16
    fabric.predict_many("score", X, keys=keys, tenants=tenants, on_shed="null")
    for i in range(8):
        fabric.predict("score", X[-1 - i], key=keys[-1 - i])  # cache hits
    victim = fabric.replicas_of("score")[0]
    fabric.kill_shard(victim)
    fabric.predict_many("score", X[:16], keys=keys[:16])  # failovers
    fabric.revive_shard(victim)
    fabric.promote("score", 2)  # invalidations
    endpoints = [
        fabric.shard(sid).server.endpoint("score")
        for sid in fabric.replicas_of("score")
    ]
    busy = endpoints[0]
    queue_full_before = busy.batcher.shed
    assert queue_full_before == 0  # a closed-loop drain is not a shed
    busy.batcher.submit(X[0], lambda rows: rows[:, 0], 2)  # fills the queue
    with pytest.raises(LoadShedError):
        fabric.shard(fabric.replicas_of("score")[0]).server.predict(
            "score", X[1]
        )
    busy.batcher.flush()
    ledgers.append(("fabric", fabric.ledger))
    for endpoint in endpoints:
        ledgers += [
            ("serving", endpoint.counts),
            ("serving.cache", endpoint.cache.stats),
            ("serving.batcher", endpoint.batcher.counts),
        ]
    fleet = fabric.ledger.as_dict()
    assert min(fleet.values()) > 0, fleet  # failovers, rerouted, replica_hits...
    # the queue-full shed is one endpoint shed: not twice in serving.shed
    assert busy.batcher.shed == queue_full_before + 1
    assert busy.shed == get_registry().value("serving.shed") == 1
    cache_totals = [
        sum(e.cache.stats.as_dict()[f] for e in endpoints)
        for f in ("hits", "misses", "invalidations", "evictions")
    ]
    assert min(cache_totals) > 0, cache_totals


def _parallel_and_cluster(ledgers):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    y = X @ np.arange(1.0, 4.0)
    with ParallelContext(
        max_workers=2,
        cost_threshold=100.0,
        retry_policy=RetryPolicy(max_attempts=8, backoff_base=0.0),
        task_timeout=0.05,
    ) as ctx:
        plan = FaultPlan(seed=7).inject("parallel.task.flaky", rate=0.4)
        plan.inject(
            "parallel.task.slow", rate=1.0, mode="sleep", sleep_seconds=0.2,
            max_faults=1,
        )
        with ChaosContext(plan):
            ctx.pmap(lambda v: v, range(20), site="flaky")  # fan-out, retries
            ctx.pmap(lambda v: v, range(4), cost_hint=1.0, site="flaky")
            ctx.pmap(lambda v: v, range(2), site="slow")  # one straggler
        ctx._pool().shutdown(wait=True)  # lost between _pool() and submit
        ctx.pmap(lambda v: v, range(3), site="lost")
        ctx.shutdown()  # detach the dead executor; the next call rebuilds

        cluster = SimulatedCluster(X, y, num_workers=4, parallel=ctx)
        loss = SquaredLoss()
        cluster.kill_worker(1)
        cluster.global_gradient(loss, np.zeros(3))  # failure + lineage recovery
        with ChaosContext(FaultPlan(seed=7).inject("paramserver.pull", rate=0.3)):
            train_parameter_server(cluster, loss, total_updates=12, loss_every=6)
        train_model_averaging(cluster, loss, local_iterations=3)
    ledgers += [("parallel", ctx.stats.counts), ("cluster", cluster.comm)]
    ledgers += [
        (f"parallel.sites.{site}", entry.counts)
        for site, entry in ctx.stats.by_site.items()
    ]
    assert min(ctx.stats.counts.as_dict().values()) > 0  # every field moved
    assert min(cluster.comm.as_dict().values()) > 0
    assert sorted(ctx.stats.by_site) == [
        "cluster.gradient", "cluster.loss", "flaky", "lost", "slow",
    ]


class _Clock:
    now = 0.0

    def __call__(self):
        return self.now


def test_every_ledger_field_equals_its_registry_counter(tmp_path):
    ledgers: list[tuple[str, Ledger]] = []
    _compiler(ledgers)
    _runtime_and_materialize(ledgers, tmp_path)
    _features(ledgers)
    _incremental(ledgers)
    _serving(ledgers)
    _parallel_and_cluster(ledgers)

    expected: dict[str, int] = {}
    for prefix, ledger in ledgers:
        for field, count in ledger.as_dict().items():
            name = f"{prefix}.{field}"
            expected[name] = expected.get(name, 0) + count
    registry = get_registry()
    got = {name: registry.value(name) for name in expected}
    assert got == expected
    # 13 layers + the parallel totals, its five sites, and the cluster
    assert len({prefix for prefix, _ in ledgers}) == 13 + 1 + 5 + 1
