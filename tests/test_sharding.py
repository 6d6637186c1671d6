"""Tests for the sharded serving fabric: ring, quotas, failover, chaos.

Covers the consistent-hash ring (determinism, the ~1/N remap property,
``PYTHONHASHSEED`` independence via a subprocess), per-tenant token
buckets, and the :class:`~repro.serving.ShardedServer` itself —
placement, deterministic failover with an exact ledger, epoch cache
invalidation on revive, fleet-wide rollout, tenant isolation, and the
``fabric.route`` / ``fabric.score`` chaos sites. Chaos assertions are
seed-independent (the CI fabric legs run this file under
``REPRO_CHAOS_SEED=7`` and ``123``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import subprocess
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_classification
from repro.errors import (
    DeadlineExceededError,
    LoadShedError,
    NoLiveReplicaError,
    ServingError,
)
from repro.lifecycle import ModelRegistry
from repro.ml import LogisticRegression
from repro.obs import get_registry
from repro.resilience import (
    ChaosContext,
    FaultPlan,
    RetryPolicy,
    chaos_seed_from_env,
    fault_point,
)
from repro.serving import (
    AdmissionQuotas,
    CanaryRouter,
    HashRing,
    ShardedServer,
    TokenBucket,
    compile_linear_scorer,
)
from repro.serving.ring import (
    key_token,
    placement_hash,
    rotation,
    rotations,
)


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@functools.lru_cache(maxsize=1)
def _fit_pair():
    X, y = make_classification(256, 5, separation=2.5, seed=11)
    m1 = LogisticRegression(max_iter=30).fit(X, y)
    m2 = LogisticRegression(max_iter=60, l2=0.5).fit(X, y)
    return X, y, m1, m2


@pytest.fixture
def model_pair():
    return _fit_pair()


@pytest.fixture
def registry(model_pair):
    X, _, m1, m2 = model_pair
    registry = ModelRegistry()
    registry.register("churn", m1)
    registry.register("churn", m2)
    return registry


#: the two doors of the one request path; ``_ask`` sends the same
#: requests through either, so a case written once holds for both.
DOORS = ("predict", "predict_many")


def _ask(fabric, door, rows, keys, tenant=None, **kwargs):
    if door == "predict":
        return [
            fabric.predict("score", row, key=key, tenant=tenant, **kwargs)
            for row, key in zip(rows, keys)
        ]
    tenants = None if tenant is None else [tenant] * len(rows)
    return fabric.predict_many(
        "score", rows, keys=keys, tenants=tenants, **kwargs
    )


def _served_ledger(fabric):
    """What the fleet says it has served: only a served request may
    move any of it."""
    ledger = fabric.ledger
    return (
        ledger.replica_hits, ledger.failovers, ledger.rerouted,
        [fabric.shard(sid).served for sid in fabric.shard_ids()],
    )


def make_fabric(registry, num_shards=4, replication=2, **kwargs):
    fabric = ShardedServer(
        registry, num_shards=num_shards, replication=replication, **kwargs
    )
    fabric.create_endpoint(
        "score", "churn", cache_enabled=True, queue_capacity=1 << 16
    )
    fabric.promote("score", 1)
    return fabric


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------
def _owners(ring, keys):
    return {key: ring.owner(key) for key in keys}


class TestHashRing:
    def test_deterministic_across_instances(self):
        nodes = ["a", "b", "c", "d"]
        r1 = HashRing(nodes, vnodes=32, seed=5)
        r2 = HashRing(reversed(nodes), vnodes=32, seed=5)
        keys = [f"k{i}" for i in range(500)]
        assert _owners(r1, keys) == _owners(r2, keys)

    def test_seed_changes_placement(self):
        nodes = ["a", "b", "c", "d"]
        keys = [f"k{i}" for i in range(500)]
        a = _owners(HashRing(nodes, vnodes=32, seed=0), keys)
        b = _owners(HashRing(nodes, vnodes=32, seed=1), keys)
        assert a != b

    def test_successors_distinct_and_clamped(self):
        ring = HashRing(["a", "b", "c"], vnodes=16)
        succ = ring.successors("key", 5)
        assert len(succ) == 3
        assert len(set(succ)) == 3
        assert ring.owner("key") == succ[0]

    def test_add_membership(self):
        ring = HashRing(["a"], vnodes=8)
        ring.add_node("b")
        assert "b" in ring and len(ring) == 2
        assert ring.nodes == ["a", "b"]
        with pytest.raises(ServingError):
            ring.add_node("b")

    def test_empty_ring_raises(self):
        with pytest.raises(ServingError):
            HashRing([]).owner("k")

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_adding_a_node_remaps_about_one_over_n(self, n_nodes, seed):
        """Adding the (N+1)-th node remaps ~1/(N+1) of keys: everything
        it takes over, and nothing else moves."""
        keys = [f"key-{i}" for i in range(1_000)]
        ring = HashRing(
            [f"n{i}" for i in range(n_nodes)], vnodes=128, seed=seed
        )
        before = _owners(ring, keys)
        ring.add_node("extra")
        after = _owners(ring, keys)
        moved = [k for k in keys if before[k] != after[k]]
        # every moved key must have moved TO the new node
        assert all(after[k] == "extra" for k in moved)
        share = 1.0 / (n_nodes + 1)
        # 128 vnodes keep the arc-length variance ~9% of the share;
        # the bound leaves ~5 sigma plus key-sampling noise.
        assert len(moved) / len(keys) <= 1.6 * share + 0.02

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_removing_a_node_only_remaps_its_keys(self, n_nodes, seed):
        keys = [f"key-{i}" for i in range(1_000)]
        ring = HashRing(
            [f"n{i}" for i in range(n_nodes)], vnodes=128, seed=seed
        )
        before = _owners(ring, keys)
        # placement depends on the node names only: the fleet without n0
        fewer = HashRing(
            [f"n{i}" for i in range(1, n_nodes)], vnodes=128, seed=seed
        )
        after = _owners(fewer, keys)
        for k in keys:
            if before[k] != "n0":
                assert after[k] == before[k]
            else:
                assert after[k] != "n0"

    def test_stable_across_pythonhashseed(self):
        """Routing is CRC32-based: a subprocess with a different hash
        seed must produce identical assignments."""
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        script = (
            "import json, sys\n"
            "from repro.serving import HashRing\n"
            "ring = HashRing(['a', 'b', 'c'], vnodes=32, seed=7)\n"
            "keys = [f'k{i}' for i in range(200)]\n"
            "owners = {k: ring.owner(k) for k in keys}\n"
            "print(json.dumps(owners, sort_keys=True))\n"
        )
        outputs = []
        for hashseed in ("1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(json.loads(proc.stdout))
        local = _owners(
            HashRing(["a", "b", "c"], vnodes=32, seed=7),
            [f"k{i}" for i in range(200)],
        )
        assert outputs[0] == outputs[1] == local


# ----------------------------------------------------------------------
# Token buckets and tenant quotas
# ----------------------------------------------------------------------
def _tokens(bucket: TokenBucket) -> float:
    """The bucket's tokens now: refilled to its clock, nothing taken."""
    assert bucket.try_take(0) == 0
    return bucket._tokens


class TestQuotas:
    def test_burst_then_shed_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(5, refill_per_s=0.0, clock=clock)
        assert sum(bucket.try_take() for _ in range(8)) == 5

    def test_refill_is_exact_arithmetic(self):
        clock = FakeClock()
        bucket = TokenBucket(2, refill_per_s=1.0, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        clock.advance(1.0)
        assert bucket.try_take()
        assert not bucket.try_take()
        clock.advance(10.0)  # refill caps at capacity
        assert _tokens(bucket) == 2.0

    def test_invalid_config(self):
        with pytest.raises(ServingError):
            TokenBucket(0, 1.0)
        with pytest.raises(ServingError):
            TokenBucket(1, -1.0)

    def test_quotas_ledger_per_tenant(self):
        clock = FakeClock()
        quotas = AdmissionQuotas(clock=clock)
        quotas.set_quota("hot", 2, 0.0)
        quotas.set_quota("new-tenant", 1, 0.0)
        decisions = [quotas.admit("hot") for _ in range(4)]
        assert decisions == [1, 1, 0, 0]
        assert quotas.admit("new-tenant") == 1  # its own bucket
        assert quotas.admit("new-tenant") == 0
        assert quotas.admit("unmetered") == 1  # no bucket: admitted
        assert quotas.admit(None) == 1  # untenanted: unmetered
        stats = quotas.stats()
        assert stats["hot"] == {"admitted": 2, "shed": 2}
        assert stats["new-tenant"] == {"admitted": 1, "shed": 1}

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.floats(min_value=0.25, max_value=60.0),
        refill=st.floats(min_value=0.0, max_value=25.0),
        calls=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3.0),  # gap before it
                st.integers(min_value=1, max_value=40),  # requests in it
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_one_decision_per_call_is_n_single_decisions(
        self, capacity, refill, calls
    ):
        """``admit(tenant, n)`` leaves the bucket's tokens (bitwise) and
        the tenant's ``[admitted, shed]`` where ``n`` one-request
        decisions at the same instant leave them."""
        clocks = (FakeClock(), FakeClock())
        per_call, per_row = (AdmissionQuotas(clock=c) for c in clocks)
        for quotas in (per_call, per_row):
            quotas.set_quota("t", capacity, refill)
        for gap, n in calls:
            for clock in clocks:
                clock.advance(gap)
            singles = sum(per_row.admit("t") for _ in range(n))
            assert per_call.admit("t", n) == singles
            tokens = [_tokens(q.bucket("t")) for q in (per_call, per_row)]
            assert tokens[0] == tokens[1], tokens
            assert per_call.ledger == per_row.ledger

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_all_or_nothing_is_one_admit_per_tenant_or_nothing(self, data):
        """``admit_all`` over calls of 1-8 tenants (some unmetered, some
        rows untenanted, capacities that refuse): an admitted call
        leaves every bucket's tokens (bitwise) and the ledger where one
        ``admit(t, n)`` per tenant at the same instant leaves them; a
        refused one returns the first row the per-row walk refuses,
        charges no bucket and counts one shed on that row's tenant."""
        tenants = [f"t{i}" for i in range(data.draw(st.integers(1, 8)))]
        clocks = (FakeClock(), FakeClock())
        whole, per_tenant = (AdmissionQuotas(clock=c) for c in clocks)
        metered = data.draw(st.lists(
            st.sampled_from(tenants), unique=True
        ), "metered")
        for tenant in metered:
            capacity = data.draw(st.floats(0.25, 6.0), f"{tenant} capacity")
            refill = data.draw(st.floats(0.0, 5.0), f"{tenant} refill")
            for quotas in (whole, per_tenant):
                quotas.set_quota(tenant, capacity, refill)
        calls = data.draw(st.lists(st.tuples(
            st.floats(0.0, 2.0),  # gap before the call
            st.lists(st.sampled_from(tenants + [None]), max_size=16),
        ), min_size=1, max_size=8), "calls")
        for gap, rows in calls:
            for clock in clocks:
                clock.advance(gap)
            # the per-row walk at this instant: a tenant's k-th row is
            # admitted while k < its whole tokens (k from 0)
            room = {t: int(_tokens(per_tenant.bucket(t))) for t in metered}
            seen: dict = {}
            walk_refuses = None
            for i, tenant in enumerate(rows):
                seen[tenant] = seen.get(tenant, 0) + 1
                if seen[tenant] > room.get(tenant, len(rows)):
                    walk_refuses = i
                    break
            refused = whole.admit_all(rows)
            assert refused == walk_refuses, (rows, room)
            if refused is None:
                for tenant, n in Counter(rows).items():
                    if tenant is not None:
                        per_tenant.admit(tenant, n)
            else:
                per_tenant.ledger.setdefault(rows[refused], [0, 0])[1] += 1
            for tenant in metered:
                tokens = [
                    _tokens(q.bucket(tenant)) for q in (whole, per_tenant)
                ]
                assert tokens[0].hex() == tokens[1].hex(), (tenant, tokens)
            assert whole.ledger == per_tenant.ledger

    def test_all_or_nothing_check_and_take_are_one_step(self):
        """A rival ``admit`` that arrives while ``admit_all`` checks the
        buckets waits until the takes are done, so it cannot drain a
        bucket between the check and the take."""
        clock = FakeClock()
        quotas = AdmissionQuotas(clock=clock)
        quotas.set_quota("A", 2, 0.0)
        quotas.set_quota("B", 2, 0.0)
        rival = threading.Thread(target=quotas.admit, args=("B", 2))
        blocked = []

        def checking() -> float:  # the buckets read the clock to refill
            if not rival.is_alive() and not blocked:
                rival.start()
                rival.join(0.2)
                blocked.append(rival.is_alive())
            return clock.now

        for tenant in ("A", "B"):
            quotas.bucket(tenant)._clock = checking
        assert quotas.admit_all(["A", "B", "B"]) is None
        rival.join()
        assert blocked == [True]
        assert quotas.ledger == {"A": [1, 0], "B": [2, 2]}


# ----------------------------------------------------------------------
# Fabric: placement, routing, failover
# ----------------------------------------------------------------------
class TestFabricRouting:
    def test_endpoint_placed_on_ring_successors(self, registry):
        fabric = make_fabric(registry)
        assert fabric.replicas_of("score") == tuple(
            fabric.ring.successors("score", 2)
        )
        fabric.close()

    def test_preference_is_rotation_of_replicas(self, registry):
        fabric = make_fabric(registry)
        replicas = set(fabric.replicas_of("score"))
        for key in ("a", "b", "c", None):
            pref = fabric.preference("score", key)
            assert set(pref) == replicas
        assert fabric.preference("score", None)[0] == fabric.replicas_of(
            "score"
        )[0]
        # deterministic: same key, same order, every call
        assert fabric.preference("score", "k1") == fabric.preference(
            "score", "k1"
        )
        fabric.close()

    def test_numpy_scalar_keys_route_as_their_python_value(self, registry):
        """``repr(np.int64(5))`` is ``'np.int64(5)'`` under numpy 2: the
        canary split, the replica order and the ring owner read the
        value, not the numpy type."""
        fabric = make_fabric(registry)
        router = CanaryRouter(0.5)
        keys = [(k, np.int64(k), np.int32(k)) for k in range(1000)]
        keys += [(f"u{k}", np.str_(f"u{k}")) for k in range(1000)]
        for plain, *scalars in keys:
            for key in scalars:
                assert router.bucket(key) == router.bucket(plain)
                assert fabric.preference("score", key) == fabric.preference(
                    "score", plain
                )
                assert fabric.ring.successors(key, 2) == fabric.ring.successors(
                    plain, 2
                )
        fabric.close()

    def test_replication_clamped_to_fleet(self, registry):
        fabric = ShardedServer(registry, num_shards=2, replication=5)
        endpoint = fabric.create_endpoint("score", "churn")
        assert len(endpoint.replicas) == 2
        fabric.close()

    def test_failover_ledger_exact(self, registry, model_pair):
        X = model_pair[0]
        fabric = make_fabric(registry)
        keys = [f"user-{i}" for i in range(300)]
        rows = np.tile(X[0], (len(keys), 1))

        # oracle: replay routing against the liveness map
        home = fabric.replicas_of("score")[0]
        fabric.predict_many("score", rows, keys=keys)
        led = fabric.stats()["ledger"]
        expected_replica = sum(
            fabric.preference("score", k)[0] != home for k in keys
        )
        assert led["failovers"] == 0
        assert led["replica_hits"] == expected_replica

        victim = fabric.preference("score", keys[0])[0]
        fabric.kill_shard(victim)
        expected_failover = sum(
            fabric.preference("score", k)[0] == victim for k in keys
        )
        fabric.predict_many("score", rows, keys=keys)
        led2 = fabric.stats()["ledger"]
        assert led2["failovers"] == expected_failover
        assert led2["rerouted"] == expected_failover
        fabric.close()

    def test_failover_answers_bit_identical(self, registry, model_pair):
        X = model_pair[0]
        fabric = make_fabric(registry)
        keys = [f"u{i}" for i in range(64)]
        rows = X[: len(keys)]
        # one unsharded pass: bitwise by the batch-invariance contract
        reference = compile_linear_scorer(model_pair[2])(rows)
        fabric.kill_shard(fabric.replicas_of("score")[0])
        served = fabric.predict_many("score", rows, keys=keys)
        assert np.array_equal(served, reference)
        fabric.close()

    def test_all_replicas_dead_raises(self, registry, model_pair):
        X = model_pair[0]
        fabric = make_fabric(registry)
        for sid in fabric.replicas_of("score"):
            fabric.kill_shard(sid)
        with pytest.raises(NoLiveReplicaError):
            fabric.predict("score", X[0], key="k")
        fabric.close()

    def test_revive_bumps_epoch_and_invalidates_cache(
        self, registry, model_pair
    ):
        X = model_pair[0]
        fabric = make_fabric(registry)
        keys = [f"u{i}" for i in range(50)]
        fabric.predict_many("score", X[: len(keys)], keys=keys)
        victim = fabric.replicas_of("score")[0]
        cached = len(fabric.shard(victim).server.endpoint("score").cache)
        assert cached > 0
        fabric.kill_shard(victim)
        dropped = fabric.revive_shard(victim)
        assert dropped == cached
        assert fabric.shard(victim).epoch == 1
        assert fabric.stats()["ledger"]["epoch_invalidations"] == cached
        assert len(fabric.shard(victim).server.endpoint("score").cache) == 0
        fabric.close()

    def test_kill_revive_state_errors(self, registry):
        fabric = make_fabric(registry)
        with pytest.raises(ServingError):
            fabric.revive_shard("shard-0")  # already live
        fabric.kill_shard("shard-0")
        with pytest.raises(ServingError):
            fabric.kill_shard("shard-0")  # already dead
        fabric.close()


# ----------------------------------------------------------------------
# Fabric: fleet rollout
# ----------------------------------------------------------------------
class TestFleetRollout:
    def test_promote_invalidates_every_replica(
        self, registry, model_pair, monkeypatch
    ):
        """One deployed-alias write for the fleet, one ``invalidate``
        per hosting replica."""
        X = model_pair[0]
        fabric = make_fabric(registry, replication=2)
        keys = [f"u{i}" for i in range(40)]
        fabric.predict_many("score", X[: len(keys)], keys=keys)
        writes, invalidated = [], []
        real_set_alias = registry.set_alias
        monkeypatch.setattr(
            registry, "set_alias",
            lambda *args: writes.append(args) or real_set_alias(*args),
        )
        for sid in fabric.replicas_of("score"):
            server = fabric.shard(sid).server
            real = server.invalidate
            monkeypatch.setattr(
                server, "invalidate",
                lambda name, sid=sid, real=real:
                    invalidated.append((sid, name)) or real(name),
            )
        assert fabric.promote("score", 2).version == 2
        assert writes == [("churn", registry.DEPLOYED_ALIAS, 2)]
        assert invalidated == [
            (sid, "score") for sid in fabric.replicas_of("score")
        ]
        assert len(invalidated) == 2
        for sid in fabric.replicas_of("score"):
            assert len(fabric.shard(sid).server.endpoint("score").cache) == 0
        assert registry.deployed("churn").version == 2
        fabric.close()

    def test_canary_split_exact_across_fleet(self, registry, model_pair):
        X = model_pair[0]
        fabric = make_fabric(registry)
        fabric.create_endpoint(
            "canary-ep",
            "churn",
            cache_enabled=False,
            canary_seed=99,
            queue_capacity=1 << 16,
        )
        fabric.promote("canary-ep", 1)
        fabric.set_canary("canary-ep", 2, fraction=0.3)
        keys = [f"user-{i}" for i in range(400)]
        rows = np.tile(X[0], (len(keys), 1))
        fabric.predict_many("canary-ep", rows, keys=keys)
        router = CanaryRouter(0.3, 99)
        expected = sum(router.routes_to_canary(k) for k in keys)
        observed = sum(
            fabric.shard(sid).server.endpoint("canary-ep").canary_requests
            for sid in fabric.replicas_of("canary-ep")
        )
        assert observed == expected
        fabric.clear_canary("canary-ep")
        for sid in fabric.replicas_of("canary-ep"):
            assert fabric.shard(sid).server.endpoint("canary-ep").canary is None
        fabric.close()

    def test_a_refused_canary_changes_nothing(self, registry, model_pair):
        """The fraction is validated before the alias is written: a
        refused ``set_canary`` leaves the aliases and every answer as
        they were (it used to point the canary at the refused version)."""
        X = model_pair[0]
        fabric = make_fabric(registry, num_shards=1, replication=1)
        fabric.set_canary("score", 2, fraction=0.25)
        keys = [f"k{i}" for i in range(256)]
        rows = X[: len(keys)]
        before = fabric.predict_many("score", rows, keys=keys)
        aliases = registry.aliases("churn")
        registry.register("churn", model_pair[2])  # v3 answers as v1
        with pytest.raises(ServingError, match="fraction"):
            fabric.set_canary("score", 3, fraction=2.0)
        assert registry.aliases("churn") == aliases
        after = fabric.predict_many("score", rows, keys=keys)
        assert after.tobytes() == before.tobytes()
        fabric.close()


# ----------------------------------------------------------------------
# Fabric: tenant quotas and error context
# ----------------------------------------------------------------------
class TestTenantIsolation:
    def test_hot_tenant_sheds_its_own_overflow(self, registry, model_pair):
        X = model_pair[0]
        clock = FakeClock()
        fabric = make_fabric(registry, clock=clock)
        fabric.set_quota("hot", capacity=10, refill_per_s=0.0)
        rows = np.tile(X[0], (60, 1))
        tenants = ["hot"] * 30 + ["cold"] * 30
        values, shed = fabric.predict_many(
            "score", rows, tenants=tenants, on_shed="null"
        )
        assert len(shed) == 20  # hot's overflow, exactly
        assert all(i < 30 for i in shed)  # cold tenant untouched
        assert np.isfinite(values[30:]).all()
        stats = fabric.stats()
        assert stats["tenants"]["hot"] == {"admitted": 10, "shed": 20}
        assert stats["tenants"]["cold"] == {"admitted": 30, "shed": 0}
        assert stats["ledger"]["quota_shed"] == 20
        fabric.close()

    def test_quota_refill_readmits(self, registry, model_pair):
        X = model_pair[0]
        clock = FakeClock()
        fabric = make_fabric(registry, clock=clock)
        fabric.set_quota("t", capacity=1, refill_per_s=1.0)
        assert np.isfinite(fabric.predict("score", X[0], tenant="t"))
        with pytest.raises(LoadShedError) as exc_info:
            fabric.predict("score", X[0], tenant="t")
        assert exc_info.value.reason == "quota"
        assert exc_info.value.tenant == "t"
        assert exc_info.value.context["endpoint"] == "score"
        clock.advance(1.0)
        assert np.isfinite(fabric.predict("score", X[0], tenant="t"))
        fabric.close()

    @pytest.mark.parametrize("door", DOORS)
    def test_an_unhashable_tenant_is_refused_at_the_door(
        self, registry, model_pair, door
    ):
        """A tenant keys a quota bucket, so an unhashable one is the
        caller's error: a ``ServingError`` naming the door, raised
        before the call counts a request (not a bare ``TypeError`` from
        the quotas after ``requests`` had moved)."""
        X = model_pair[0]
        fabric = make_fabric(registry, clock=FakeClock())
        fabric.set_quota("a", capacity=8, refill_per_s=0.0)
        before = get_registry().value("fabric.requests")
        for _ in range(3):
            with pytest.raises(ServingError, match=rf"ShardedServer\.{door}:"):
                _ask(fabric, door, X[:2], ["k0", "k1"], tenant=["a"])
        assert fabric.stats()["ledger"]["requests"] == 0
        assert get_registry().value("fabric.requests") == before
        assert fabric.stats()["tenants"] == {}
        fabric.close()

    def test_quota_shed_raises_by_default(self, registry, model_pair):
        X = model_pair[0]
        fabric = make_fabric(registry, clock=FakeClock())
        fabric.set_quota("hot", capacity=1, refill_per_s=0.0)
        rows = np.tile(X[0], (3, 1))
        with pytest.raises(LoadShedError):
            fabric.predict_many("score", rows, tenants=["hot"] * 3)
        fabric.close()

    @pytest.mark.parametrize(
        "tenants, refused",
        [
            (["A"] * 10 + ["B"] * 2, "B"),
            # the first refused row decides: A's 2nd row comes before B's
            (["B", "A", "A", "B"], "A"),
        ],
    )
    def test_raising_quota_shed_charges_nothing(
        self, registry, model_pair, tenants, refused
    ):
        """A call that raises on a quota shed serves nothing, so it
        charges no bucket and admits nothing; its first refused row is
        the one shed (no refill, so the buckets read back exactly)."""
        X = model_pair[0]
        fabric = make_fabric(registry, clock=FakeClock())
        capacity = {"A": 100 if refused == "B" else 1, "B": 1}
        for tenant, tokens in capacity.items():
            fabric.set_quota(tenant, capacity=tokens, refill_per_s=0.0)
        rows = np.tile(X[0], (len(tenants), 1))
        with pytest.raises(LoadShedError) as exc_info:
            fabric.predict_many("score", rows, tenants=tenants)
        assert (exc_info.value.tenant, exc_info.value.reason) == (
            refused, "quota"
        )
        stats = fabric.stats()
        assert stats["tenants"] == {refused: {"admitted": 0, "shed": 1}}
        assert stats["ledger"]["quota_shed"] == 1
        for tenant, tokens in capacity.items():
            assert _tokens(fabric.quotas.bucket(tenant)) == tokens
        assert [shard["served"] for shard in stats["shards"].values()] == [
            0
        ] * 4
        # ``on_shed="null"`` still admits what fits and sheds the rest
        _, shed = fabric.predict_many(
            "score", rows, tenants=tenants, on_shed="null"
        )
        assert fabric.stats()["ledger"]["quota_shed"] == 1 + len(shed)
        fabric.close()

    @pytest.mark.parametrize("door", DOORS)
    def test_shard_shed_carries_shard_and_tenant_context(
        self, registry, model_pair, door
    ):
        """An admission-chaos shed inside a shard surfaces with the
        serving shard and tenant attached, and a request that was shed
        is not in the ledger of what was served."""
        X = model_pair[0]
        fabric = make_fabric(registry)
        keys = [f"k{i}" for i in range(8)]  # both replicas get some
        assert len({fabric.route("score", key)[0] for key in keys}) == 2
        _ask(fabric, door, X[:8], keys, tenant="acme")
        before = _served_ledger(fabric)
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "serving.admission", rate=1.0
        )
        with ChaosContext(plan):
            with pytest.raises(LoadShedError) as exc_info:
                _ask(fabric, door, X[8:16], keys, tenant="acme")
        err = exc_info.value
        assert err.reason == "chaos"
        assert err.tenant == "acme"
        assert err.shard in fabric.replicas_of("score")
        assert err.context["shard"] == err.shard
        assert _served_ledger(fabric) == before
        fabric.close()

    @pytest.mark.parametrize(
        "door, replication, tenant",
        [
            ("predict", 2, "t9"),
            ("predict_many", 2, "t9"),
            # the single-replica, quota-free fast path is a door too
            ("predict_many", 1, None),
        ],
    )
    def test_deadline_error_carries_context(
        self, registry, model_pair, door, replication, tenant
    ):
        X = model_pair[0]
        clock = FakeClock()
        fabric = make_fabric(registry, replication=replication, clock=clock)

        # a scorer that advances the fake clock past any deadline
        sid = fabric.preference("score", "k")[0]
        server = fabric.shard(sid).server
        entry = registry.get("churn", 1)
        slow = server._scorer_for(server.endpoint("score"), entry)

        def stalling(batch, deadline_at=None, _slow=slow):
            clock.advance(10.0)
            return _slow(batch)

        stalling.accepts_deadline = True
        server._scorers[("score", 1)] = stalling
        before = _served_ledger(fabric)
        with pytest.raises(DeadlineExceededError) as exc_info:
            _ask(fabric, door, X[:1], ["k"], tenant=tenant, deadline_ms=5)
        assert exc_info.value.tenant == tenant
        assert exc_info.value.shard == sid
        assert exc_info.value.deadline_ms == 5
        assert _served_ledger(fabric) == before
        fabric.close()

    @pytest.mark.parametrize("door", DOORS)
    def test_one_deadline_from_the_front_door_to_the_scorer(
        self, registry, model_pair, door
    ):
        """The budget placement spends is not refunded at the shard: one
        ``fabric.route`` fault costs a 4 ms backoff out of 5 ms, so a
        scorer that takes 2 ms is late — the shard serves under the
        fleet's absolute deadline, not a fresh 5 ms of its own."""
        X = model_pair[0]
        clock = FakeClock()
        retry = RetryPolicy(
            max_attempts=2, backoff_base=0.004, jitter=0.0,
            sleep=clock.advance, clock=clock,
        )
        fabric = make_fabric(registry, clock=clock, retry=retry)
        sid = fabric.preference("score", "k")[0]
        server = fabric.shard(sid).server
        scorer = server._scorer_for(
            server.endpoint("score"), registry.get("churn", 1)
        )

        def stalling(batch, deadline_at=None):
            clock.advance(0.002)
            return scorer(batch)

        stalling.accepts_deadline = True
        server._scorers[("score", 1)] = stalling
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "fabric.route", rate=1.0, max_faults=1
        )
        with ChaosContext(plan) as chaos:
            with pytest.raises(DeadlineExceededError) as exc_info:
                _ask(fabric, door, X[:1], ["k"], tenant="t9", deadline_ms=5)
        assert chaos.injected_at("fabric.route") == 1
        assert clock.now == pytest.approx(0.006)
        assert exc_info.value.deadline_ms == 5
        assert exc_info.value.shard == sid
        assert len(server.endpoint("score").cache) == 0
        fabric.close()


# ----------------------------------------------------------------------
# Fabric: the two doors are one request path
# ----------------------------------------------------------------------
class TestOneRequestPath:
    @settings(max_examples=25, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),  # row of X
                st.one_of(st.none(), st.integers(0, 40)),  # request key
                st.sampled_from([None, "a", "b", "c"]),  # tenant
            ),
            min_size=1,
            max_size=48,
            unique_by=lambda request: request[0],
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        dead=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        burst=st.integers(min_value=1, max_value=12),
    )
    def test_both_doors_are_one_path(self, requests, fraction, dead, burst):
        """``predict`` in a loop and one ``predict_many`` over the same
        ``(rows, keys, tenants)``, on twin fleets with a canary, a
        possibly dead shard and metered tenants: bitwise-equal answers
        (NaN where the quota shed) and equal ledgers at every level.
        Rows are distinct because ``predict_many`` fills the cache after
        its drain, so a repeat inside one call cannot hit."""
        X, _, m1, m2 = _fit_pair()
        registry = ModelRegistry()
        registry.register("churn", m1)
        registry.register("churn", m2)
        twins = []
        for _ in DOORS:
            fabric = make_fabric(registry, clock=FakeClock())
            fabric.set_canary("score", 2, fraction)
            fabric.set_quota("a", capacity=burst, refill_per_s=0.0)
            for tenant in ("b", "c"):
                fabric.set_quota(tenant, capacity=2 * burst, refill_per_s=0.0)
            if dead is not None:
                fabric.kill_shard(f"shard-{dead}")
            twins.append(fabric)
        rows = X[[i for i, _, _ in requests]]
        keys = [key for _, key, _ in requests]
        tenants = [tenant for _, _, tenant in requests]

        looped = np.full(len(requests), np.nan)
        for i, (row, key, tenant) in enumerate(zip(rows, keys, tenants)):
            try:
                looped[i] = twins[0].predict(
                    "score", row, key=key, tenant=tenant
                )
            except LoadShedError as exc:
                assert exc.reason == "quota" and exc.tenant == tenant
        batched, shed = twins[1].predict_many(
            "score", rows, keys=keys, tenants=tenants, on_shed="null"
        )
        assert looped.tobytes() == batched.tobytes()
        assert shed == np.flatnonzero(np.isnan(looped)).tolist()

        one, many = (fabric.stats() for fabric in twins)
        assert one["ledger"] == many["ledger"]
        assert one["ledger"]["requests"] == len(requests)
        assert one["tenants"] == many["tenants"]
        for sid in twins[0].shard_ids():
            a, b = one["shards"][sid], many["shards"][sid]
            assert a["served"] == b["served"]
            for mine, theirs in zip(
                a["endpoints"].values(), b["endpoints"].values()
            ):
                for field in (
                    "requests", "stable_requests", "canary_requests",
                    "shed", "deadline_exceeded", "cache",
                ):
                    assert mine[field] == theirs[field], (sid, field)
        for fabric in twins:
            fabric.close()


# ----------------------------------------------------------------------
# Fabric: one placement per call
# ----------------------------------------------------------------------
def _recording_fleet(num_shards, replication, dead, quota):
    """A fleet whose shards record, in dispatch order, the row ids
    (column 0 of each row) they were handed."""
    _, _, m1, _ = _fit_pair()
    registry = ModelRegistry()
    registry.register("churn", m1)
    fabric = make_fabric(
        registry, num_shards, replication, seed=3, clock=FakeClock()
    )
    fabric.set_quota("a", capacity=quota, refill_per_s=0.0)
    for sid in dead:
        fabric.kill_shard(sid)
    dispatched = []
    for sid in fabric.replicas_of("score"):
        server = fabric.shard(sid).server

        def recorded(name, rows, *rest, _sid=sid, _door=server.predict_many):
            dispatched.append((_sid, rows[:, 0].astype(int).tolist()))
            return _door(name, rows, *rest)

        server.predict_many = recorded
    return fabric, dispatched


def _replay(fabric, key):
    """(serving shard, skips) from the placement hash and the liveness
    map alone: an oracle that shares no placement code with the fleet."""
    replicas = fabric.replicas_of("score")
    start = 0
    if key is not None and len(replicas) > 1:
        token = key_token(key)
        start = placement_hash(fabric.seed, f"score|{token}") % len(replicas)
    preference = replicas[start:] + replicas[:start]
    for skips, sid in enumerate(preference):
        if fabric.shard(sid).live:
            return sid, skips
    return None, preference


_KEYS = st.one_of(
    st.none(),
    st.integers(-(2**40), 2**40),
    st.text(max_size=4),
    st.integers(-1000, 1000).map(np.int64),
    st.text(max_size=4).map(np.str_),
)


#: every kind of key a call may carry, including the ones whose token
#: is easy to get wrong: huge and negative ints, numpy ints of two
#: widths, bools, numpy strings and tuples
_ROTATION_KEYS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(2**64, 2**80),
    st.just(0),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.text(max_size=6),
    st.text(max_size=6).map(np.str_),
    st.tuples(st.integers(-9, 9), st.text(max_size=3)),
)

#: strings whose ``repr`` is easy to encode wrong: NUL, both quotes, a
#: backslash, non-ASCII and lone surrogates, alone and in tuples
_AWKWARD_TEXT = st.text(
    st.one_of(
        st.sampled_from(
            ["\x00", "'", '"', "\\", "\u00e9", "\ud800", "\udfff"]
        ),
        st.characters(exclude_categories=()),  # surrogates included
    ),
    max_size=6,
)
_AWKWARD_KEYS = st.one_of(
    _AWKWARD_TEXT,
    st.tuples(_AWKWARD_TEXT, _AWKWARD_TEXT),
    st.tuples(_AWKWARD_TEXT, st.integers(-9, 9), st.none()),
)


class TestCallPlacement:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        name=st.text(max_size=8),
        count=st.integers(1, 4),
        keys=st.lists(st.one_of(_ROTATION_KEYS, _AWKWARD_KEYS), max_size=12),
    )
    def test_call_rotations_are_the_placement_hash(
        self, seed, name, count, keys
    ):
        """The call's prefix-continued CRC32 is, key by key, bitwise the
        one placement hash of the whole ``"<name>|<token>"`` string, and
        the single-key ``rotation`` agrees; ``None`` and one replica
        stay home. Awkward strings (NUL, quotes, non-ASCII, lone
        surrogates) and tuples of them hash as their own tokens, so no
        batched encoding may join, split or re-escape them."""
        expected = [
            0 if key is None or count == 1
            else placement_hash(seed, f"{name}|{key_token(key)}") % count
            for key in keys
        ]
        assert rotations(seed, name, keys, count).tolist() == expected
        assert [rotation(seed, name, key, count) for key in keys] == expected

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_call_placement_replays_route_with_a_killed_shard(self, data):
        """With one hosting replica (of 2-4) killed, every key of one
        ``_place_call`` lands on the shard, and with the skips, that
        :meth:`route` names for it alone."""
        replication = data.draw(st.integers(2, 4), "replication")
        registry = ModelRegistry()
        registry.register("churn", _fit_pair()[2])
        fabric = make_fabric(registry, 4, replication, seed=7)
        replicas = fabric.replicas_of("score")
        fabric.kill_shard(data.draw(st.sampled_from(replicas), "killed"))
        keys = data.draw(st.lists(_ROTATION_KEYS, max_size=16), "keys")
        hosts, index, skips = fabric._place_call("score", keys, None)
        assert [
            (hosts[i], k) for i, k in zip(index.tolist(), skips.tolist())
        ] == [fabric.route("score", key) for key in keys]
        fabric.close()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_call_placement_equals_route_row_by_row(self, data):
        """One ``predict_many`` with no plan (and its twin under a
        rate-0 plan, which places row by row) serves each admitted row
        on the shard :meth:`route` names, and the ledger is the per-row
        replay's: failovers, reroutes, replica hits, per-shard served,
        shards in sorted order and rows in row order. With every replica
        dead the first admitted row raises with its preference, and
        nothing but ``requests`` (and the quota's decision) counts."""
        num_shards = data.draw(st.integers(1, 6), "num_shards")
        replication = data.draw(st.integers(1, num_shards), "replication")
        n = data.draw(st.integers(0, 24), "rows")
        as_array = data.draw(st.sampled_from(["list", "object", "int64"]))
        if as_array == "int64":
            keys = np.array(data.draw(st.lists(
                st.integers(-1000, 1000), min_size=n, max_size=n
            )), dtype=np.int64)
        else:
            keys = data.draw(st.lists(_KEYS, min_size=n, max_size=n))
            if as_array == "object":
                keys = np.array(keys + [None], dtype=object)[:n]
        tenants = data.draw(st.lists(
            st.sampled_from([None, "a", "b"]), min_size=n, max_size=n
        ))
        quota = data.draw(st.integers(1, 8), "quota")
        sids = [f"shard-{i}" for i in range(num_shards)]
        replicas = HashRing(sids, seed=3).successors("score", replication)
        up = data.draw(st.lists(
            st.booleans(), min_size=replication, max_size=replication
        ), "live replicas")
        dead = {sid for sid, live in zip(replicas, up) if not live}
        X = _fit_pair()[0]
        rows = X[np.arange(n) % len(X)].copy()
        rows[:, 0] = np.arange(n)

        metered = [i for i in range(n) if tenants[i] == "a"]
        admitted = [
            i for i in range(n) if tenants[i] != "a" or i in metered[:quota]
        ]
        outcomes = []
        for planned in (False, True):
            fabric, dispatched = _recording_fleet(
                num_shards, replication, dead, quota
            )
            plan = ChaosContext(FaultPlan(seed=0).inject("fabric.*", 0.0))
            try:
                with plan if planned else contextlib.nullcontext():
                    values, shed = fabric.predict_many(
                        "score", rows, keys=keys, tenants=tenants,
                        on_shed="null",
                    )
                raised = None
            except NoLiveReplicaError as exc:
                raised, shed = exc.attempted, None
            outcomes.append((
                raised, shed, dispatched, fabric.stats()["ledger"],
                fabric.stats()["tenants"], _served_ledger(fabric),
            ))

            replay = {i: _replay(fabric, keys[i]) for i in admitted}
            for i in admitted:
                if replay[i][0] is not None:
                    assert fabric.route("score", keys[i]) == replay[i]
            led = fabric.stats()["ledger"]
            assert led["requests"] == n
            if admitted and replay[admitted[0]][0] is None:
                first = keys[admitted[0]]
                assert raised == replay[admitted[0]][1]
                assert raised == tuple(fabric.preference("score", first))
                assert _served_ledger(fabric) == (0, 0, 0, [0] * num_shards)
                assert dispatched == []
                fabric.close()
                continue
            assert raised is None
            assert shed == [i for i in range(n) if i not in admitted]
            assert np.isnan(values[shed]).all()
            assert np.isfinite(values[admitted]).all()
            placed = {i: sid for sid, ids in dispatched for i in ids}
            assert placed == {i: replay[i][0] for i in admitted}
            order = [sid for sid, _ in dispatched]
            assert order == sorted(set(order))
            assert all(ids == sorted(ids) for _, ids in dispatched)
            skips = [replay[i][1] for i in admitted]
            home = fabric.replicas_of("score")[0]
            assert led["failovers"] == sum(k > 0 for k in skips)
            assert led["rerouted"] == sum(skips)
            assert led["replica_hits"] == sum(
                placed[i] != home for i in admitted
            )
            assert [fabric.shard(sid).served for sid in sids] == [
                sum(placed[i] == sid for i in admitted) for sid in sids
            ]
            fabric.close()
        assert outcomes[0] == outcomes[1]

    def test_crossings_per_row_under_a_plan_and_none_without(
        self, registry, model_pair
    ):
        """Under a rate-0 plan every admitted row crosses ``fabric.route``
        once and ``fabric.score`` once per attempted (live) shard; with
        no plan a 64-row multi-tenant call makes no fabric fault-point
        call, counted by a profile hook as the disabled-path legs do."""
        X = model_pair[0]
        keys = [f"u{i}" for i in range(64)]
        tenants = ["a", "b"] * 32
        fabrics = []
        for _ in range(2):
            fabric = make_fabric(registry, clock=FakeClock())
            fabric.set_quota("a", capacity=20, refill_per_s=0.0)
            fabric.kill_shard(fabric.replicas_of("score")[1])
            fabrics.append(fabric)

        plan = FaultPlan(seed=0).inject("fabric.*", rate=0.0)
        with ChaosContext(plan) as chaos:
            _, shed = fabrics[0].predict_many(
                "score", X[:64], keys=keys, tenants=tenants, on_shed="null"
            )
        assert len(shed) == 12
        assert chaos.invocations("fabric.route") == 64 - 12
        assert chaos.invocations("fabric.score") == 64 - 12

        fabric_sites = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is fault_point.__code__:
                site = frame.f_locals["site"]
                if site.startswith("fabric."):
                    fabric_sites.append(site)

        sys.setprofile(hook)
        try:
            _, shed = fabrics[1].predict_many(
                "score", X[:64], keys=keys, tenants=tenants, on_shed="null"
            )
        finally:
            sys.setprofile(None)
        assert len(shed) == 12
        assert fabric_sites == []
        assert fabrics[0].stats()["ledger"] == fabrics[1].stats()["ledger"]
        for fabric in fabrics:
            fabric.close()


class TestSingleRowPlacement:
    def test_predict_places_as_under_a_plan(self, registry, model_pair):
        """One stream of keyed and keyless single-row requests, with the
        home shard and then a second replica killed partway through, on
        twin fleets: with no plan (``route``) and under a rate-0 plan
        (``_place``, which crosses ``fabric.route`` per request), every
        request is served by the same shard with the same bits, and the
        fleet ledger and per-shard ``served`` are equal."""
        X, _, m1, _ = model_pair
        n = 160
        keys = [None if i % 5 == 0 else f"u{i % 37}" for i in range(n)]
        rows = X[:n]
        outcomes = []
        for planned in (False, True):
            fabric = make_fabric(registry, replication=3)
            replicas = fabric.replicas_of("score")
            kills = {50: replicas[0], 110: replicas[1]}  # home, then next
            served_by = []
            for sid in replicas:
                server = fabric.shard(sid).server

                def recorded(name, row, *rest, _sid=sid, _door=server.predict):
                    served_by.append(_sid)
                    return _door(name, row, *rest)

                server.predict = recorded
            chaos = ChaosContext(FaultPlan(seed=0).inject("fabric.*", 0.0))
            answers = []
            with chaos if planned else contextlib.nullcontext():
                for i, (row, key) in enumerate(zip(rows, keys)):
                    if i in kills:
                        fabric.kill_shard(kills[i])
                    answers.append(fabric.predict("score", row, key=key))
            if planned:
                assert chaos.invocations("fabric.route") == n
            outcomes.append((
                served_by, np.array(answers).tobytes(),
                fabric.stats()["ledger"], _served_ledger(fabric),
            ))
            fabric.close()
        assert outcomes[0] == outcomes[1]
        _, answers, ledger, _ = outcomes[0]
        assert answers == compile_linear_scorer(m1)(rows).tobytes()
        assert ledger["failovers"] > 0 and ledger["replica_hits"] > 0
        assert ledger["rerouted"] > ledger["failovers"]  # a 2-shard skip

    def test_served_counts_are_exact_under_threads(self, registry, model_pair):
        """8 threads x 500 keyed single-row requests at a 10 us switch
        interval: every served request is counted on its shard once."""
        X = model_pair[0]
        fabric = make_fabric(registry)
        threads_n, each = 8, 500
        errors: list[Exception] = []

        def client(t: int) -> None:
            try:
                for i in range(each):
                    fabric.predict("score", X[i % len(X)], key=f"t{t}-{i}")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(t,))
            for t in range(threads_n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force handoffs inside the door
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        served = sum(fabric.shard(sid).served for sid in fabric.shard_ids())
        assert served == fabric.ledger.requests == threads_n * each
        fabric.close()


# ----------------------------------------------------------------------
# Fabric: chaos on the new fault sites
# ----------------------------------------------------------------------
class TestFabricChaos:
    def fast_retry(self):
        return RetryPolicy(
            max_attempts=8, backoff_base=0.0, jitter=0.0, sleep=lambda s: None
        )

    def test_route_and_score_faults_recovered_bit_identically(
        self, registry, model_pair
    ):
        X = model_pair[0]
        seed = chaos_seed_from_env()
        keys = [f"u{i}" for i in range(200)]
        rows = np.tile(X, (1, 1))[: len(keys)]
        rows = X[: len(keys)]

        clean = make_fabric(registry)
        reference = clean.predict_many("score", rows, keys=keys)
        clean.close()

        fabric = make_fabric(registry, retry=self.fast_retry())
        plan = (
            FaultPlan(seed=seed)
            .inject("fabric.route", rate=0.2)
            .inject("fabric.score", rate=0.2)
        )
        with ChaosContext(plan) as chaos:
            served = fabric.predict_many("score", rows, keys=keys)
        assert np.array_equal(served, reference)
        assert chaos.total_injected > 0
        led = fabric.stats()["ledger"]
        assert led["requests"] == len(keys)
        # every skip that was not a dead shard came from score faults
        assert led["rerouted"] <= chaos.injected_at("fabric.score")
        fabric.close()

    def test_score_fault_without_retry_fails_over_not_fails(
        self, registry, model_pair
    ):
        """Even with no retry policy, a score-site fault on one replica
        reroutes to the next live replica instead of surfacing."""
        X = model_pair[0]
        fabric = make_fabric(registry)
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "fabric.score", rate=1.0, max_faults=1
        )
        with ChaosContext(plan):
            value = fabric.predict("score", X[0], key="k1")
        assert np.isfinite(value)
        led = fabric.stats()["ledger"]
        assert led["failovers"] == 1
        fabric.close()

    def test_chaos_with_mid_stream_kill_completes(self, registry, model_pair):
        X = model_pair[0]
        seed = chaos_seed_from_env()
        keys = [f"u{i}" for i in range(120)]
        rows = X[: len(keys)]

        clean = make_fabric(registry)
        reference = clean.predict_many("score", rows, keys=keys)
        clean.close()

        fabric = make_fabric(registry, retry=self.fast_retry())
        plan = FaultPlan(seed=seed).inject("fabric.score", rate=0.05)
        with ChaosContext(plan):
            first = fabric.predict_many("score", rows[:60], keys=keys[:60])
            fabric.kill_shard(fabric.replicas_of("score")[0])
            second = fabric.predict_many("score", rows[60:], keys=keys[60:])
        served = np.concatenate([first, second])
        assert np.array_equal(served, reference)
        fabric.close()
