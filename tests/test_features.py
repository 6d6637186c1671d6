"""Feature store: versioning, offline/online parity, refresh, gating."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_expr
from repro.errors import FeatureStoreError, PromotionHeldError, SchemaError
from repro.features import (
    DriftGate,
    FeatureStore,
    FeatureView,
    FeatureViewMaintainer,
    OnlineFeatureServer,
)
from repro.features.store import FeatureRows
from repro.incremental import DynamicTable
from repro.lang.dsl import exp as rexp
from repro.lang.dsl import sqrt as rsqrt
from repro.lifecycle import ModelRegistry
from repro.ml import LinearRegression
from repro.obs import get_registry
from repro.resilience import ChaosContext, FaultPlan, chaos_seed_from_env
from repro.runtime import execute
from repro.serving import ShardedServer
from repro.storage.table import Table


def base_table(n=120, seed=0):
    rng = np.random.default_rng(seed)
    return Table.from_columns({
        "entity": np.arange(n),
        "price": rng.normal(10.0, 2.0, n),
        "qty": rng.integers(1, 50, n).astype(np.float64),
        "score": rng.uniform(-1.0, 1.0, n),
    })


def standard_view(name="orders"):
    return FeatureView(name, "entity", {
        "spend": lambda c: c.price * c.qty,
        "root_price": lambda c: rsqrt(c.price * c.price + 1.0),
        "sig_score": lambda c: 1.0 / (1.0 + rexp(-c.score)),
        "scaled": lambda c: (c.price - 10.0) / 2.0,
    })


# ----------------------------------------------------------------------
# Versioning
# ----------------------------------------------------------------------
class TestVersioning:
    def test_version_ignores_view_name(self):
        assert standard_view("a").version == standard_view("b").version

    def test_any_edit_changes_version(self):
        base = standard_view().version
        edited_op = FeatureView("orders", "entity", {
            "spend": lambda c: c.price + c.qty,  # * -> +
            "root_price": lambda c: rsqrt(c.price * c.price + 1.0),
            "sig_score": lambda c: 1.0 / (1.0 + rexp(-c.score)),
            "scaled": lambda c: (c.price - 10.0) / 2.0,
        }).version
        edited_const = FeatureView("orders", "entity", {
            "spend": lambda c: c.price * c.qty,
            "root_price": lambda c: rsqrt(c.price * c.price + 2.0),  # 1 -> 2
            "sig_score": lambda c: 1.0 / (1.0 + rexp(-c.score)),
            "scaled": lambda c: (c.price - 10.0) / 2.0,
        }).version
        dropped = FeatureView("orders", "entity", {
            "spend": lambda c: c.price * c.qty,
        }).version
        assert len({base, edited_op, edited_const, dropped}) == 4

    def test_renamed_feature_changes_version(self):
        a = FeatureView("v", "entity", {"f": lambda c: c.price * 2.0}).version
        b = FeatureView("v", "entity", {"g": lambda c: c.price * 2.0}).version
        assert a != b

    def test_entity_key_in_version(self):
        a = FeatureView("v", "entity", {"f": lambda c: c.price * 2.0}).version
        b = FeatureView("v", "qty", {"f": lambda c: c.price * 2.0}).version
        assert a != b

    def test_non_row_local_feature_rejected(self):
        from repro.lang.dsl import sumall

        with pytest.raises(FeatureStoreError, match="row-local"):
            FeatureView("v", "entity", {
                # an aggregate mixes rows
                "bad": lambda c: sumall(c.price) * c.price,
            })

    def test_constant_only_feature_rejected(self):
        from repro.lang import matrix

        with pytest.raises(FeatureStoreError):
            FeatureView("v", "entity", {"bad": lambda c: matrix("k", (1, 1))})


# ----------------------------------------------------------------------
# Offline materialization
# ----------------------------------------------------------------------
class TestOfflineMaterialization:
    def test_second_materialization_is_a_hit_with_same_bytes(self):
        table = base_table()
        store = FeatureStore()
        first = store.materialize(standard_view(), table)
        second = store.materialize(standard_view(), table)
        assert not first.from_cache and second.from_cache
        assert first.matrix().tobytes() == second.matrix().tobytes()
        assert store.ledger() == {"materializations": 1, "hits": 1}

    def test_data_change_misses(self):
        store = FeatureStore()
        view = standard_view()
        store.materialize(view, base_table(seed=0))
        other = store.materialize(view, base_table(seed=1))
        assert not other.from_cache
        assert store.materializations == 2

    def test_definition_change_misses(self):
        table = base_table()
        store = FeatureStore()
        store.materialize(standard_view(), table)
        edited = FeatureView("orders", "entity", {
            "spend": lambda c: c.price * c.qty * 2.0,
        })
        assert not store.materialize(edited, table).from_cache

    def test_lineage_links_to_base_bytes(self):
        table = base_table()
        view = standard_view()
        assert view.fingerprint(table).operands == (view.base_fingerprint(table),)

    def test_duplicate_entities_rejected(self):
        table = Table.from_columns({
            "entity": [1, 1], "price": [1.0, 2.0], "qty": [1.0, 1.0],
            "score": [0.0, 0.0],
        })
        with pytest.raises(FeatureStoreError, match="duplicate"):
            FeatureStore().materialize(standard_view(), table)


# ----------------------------------------------------------------------
# Online serving parity
# ----------------------------------------------------------------------
class TestOnlineParity:
    def test_every_serve_matches_offline_bytes(self):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server = OnlineFeatureServer(view, offline, table)
        for entity in table.column("entity").tolist():
            assert server.serve(entity).tobytes() == offline.row(entity).tobytes()
        assert server.parity_check()
        assert server.ledger()["serves"] == table.num_rows

    def test_unknown_entity_raises(self):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server = OnlineFeatureServer(view, offline, table)
        with pytest.raises(FeatureStoreError):
            server.serve(10_000)

    def test_a_call_without_a_plan_is_the_walk(self):
        """With no chaos plan a call resolves and gathers its rows at
        once: the bytes and serves of one ``serve`` per entity, and an
        unknown entity still raises naming it, counting the serves up
        to it and no further."""
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        entities = [3, 7, 3, 11]
        one_call, walk = (
            OnlineFeatureServer(view, offline, table) for _ in range(2)
        )
        assert one_call.serve_many(entities).tobytes() == np.stack(
            [walk.serve(entity) for entity in entities]
        ).tobytes()
        for server in (one_call, walk):
            with pytest.raises(FeatureStoreError, match="10000"):
                if server is one_call:
                    server.serve_many(entities + [10_000, 5])
                for entity in entities + [10_000, 5]:
                    server.serve(entity)
        assert one_call.ledger() == walk.ledger()
        assert one_call.ledger()["serves"] == 2 * len(entities) + 1

    @pytest.mark.parametrize("chaos_rate", [0.0, 0.5])
    def test_unknown_entity_mid_call_stops_where_the_walk_does(
        self, chaos_rate
    ):
        """An unknown entity inside a ``serve_many`` call raises naming
        it, after exactly the crossings, serves and fallbacks that
        serving the entities one at a time up to it makes."""
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        entities = [3, 7, 11, 10_000, 5, 9]
        seen = []
        for one_call in (False, True):
            server = OnlineFeatureServer(view, offline, table)
            plan = FaultPlan(seed=chaos_seed_from_env()).inject(
                "features.serve", rate=chaos_rate
            )
            with ChaosContext(plan) as chaos:
                with pytest.raises(FeatureStoreError, match="10000"):
                    if one_call:
                        server.serve_many(entities)
                    for entity in entities:
                        server.serve(entity)
            seen.append((
                server.ledger(), chaos.invocations("features.serve"),
                chaos.injected_at("features.serve"),
            ))
        assert seen[0] == seen[1]
        assert seen[0][0]["serves"] == seen[0][1] == 4
        assert seen[0][0]["fallbacks"] == seen[0][2]


FEATURE_POOL = [
    ("spend", lambda c: c.price * c.qty),
    ("root", lambda c: rsqrt(c.price * c.price + 1.0)),
    ("sig", lambda c: 1.0 / (1.0 + rexp(-c.score))),
    ("scaled", lambda c: (c.price - 10.0) / 2.0),
    ("powed", lambda c: (c.qty + 1.0) ** 0.5),
    ("mix", lambda c: c.price * 0.25 + c.qty * c.score),
    ("logish", lambda c: rexp(c.score * 0.5) - 1.0),
    ("bare_qty", lambda c: c.qty),
]


class TestParityProperty:
    """Online single-row serves are bitwise the offline slice, for random
    view definitions and random entity subsets — under the session's
    chaos seed (CI runs 7 and 123)."""

    @given(
        picks=st.lists(
            st.integers(0, len(FEATURE_POOL) - 1),
            min_size=1, max_size=4, unique=True,
        ),
        data_seed=st.integers(0, 50),
        subset_seed=st.integers(0, 1000),
        chaos_rate=st.sampled_from([0.0, 0.2]),
    )
    @settings(max_examples=25, deadline=None)
    def test_online_bitwise_equals_offline(
        self, picks, data_seed, subset_seed, chaos_rate
    ):
        table = base_table(n=60, seed=data_seed)
        view = FeatureView(
            "prop", "entity", {FEATURE_POOL[i][0]: FEATURE_POOL[i][1]
                               for i in picks}
        )
        offline = FeatureStore().materialize(view, table)
        server = OnlineFeatureServer(view, offline, table)
        rng = np.random.default_rng(subset_seed)
        entities = rng.choice(
            table.column("entity"), size=20, replace=True
        ).tolist()
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "features.serve", rate=chaos_rate, mode="raise"
        )
        with ChaosContext(plan) as chaos:
            served = server.serve_many(entities)
        assert served.tobytes() == offline.slice(entities).tobytes()
        assert server.fallbacks == chaos.injected_at("features.serve")


def per_feature_columns(view, table):
    """The oracle: each feature its own single-output plan and its own
    executor call (how ``compute_columns`` ran before one plan per
    batch)."""
    bindings = {
        col: np.ascontiguousarray(
            table.column(col), dtype=np.float64
        ).reshape(-1, 1)
        for col in view.referenced_columns
    }
    return {
        f: np.asarray(
            execute(compile_expr(view._instantiate(f, table.num_rows)),
                    bindings),
            dtype=np.float64,
        ).reshape(-1)
        for f in view.feature_names
    }


class TestOnePlanPerBatch:
    """``compute_columns`` runs every feature as one multi-output plan:
    bitwise the per-feature plans, in one executor call per batch."""

    @given(
        picks=st.lists(
            st.integers(0, len(FEATURE_POOL) - 1),
            min_size=1, max_size=len(FEATURE_POOL), unique=True,
        ),
        data_seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_plan_is_bitwise_the_per_feature_plans(
        self, picks, data_seed
    ):
        table = base_table(n=60, seed=data_seed)
        view = FeatureView(
            "prop", "entity", {FEATURE_POOL[i][0]: FEATURE_POOL[i][1]
                               for i in picks}
        )
        registry = get_registry()
        for size in (1, 2, 17, table.num_rows):
            batch = table.take(np.arange(size))
            before = registry.value("executor.executions")
            got = view.compute_columns(batch)
            assert registry.value("executor.executions") == before + 1
            want = per_feature_columns(view, batch)
            assert list(got) == list(want) == list(view.feature_names)
            for f in view.feature_names:
                assert got[f].dtype == np.float64
                assert got[f].tobytes() == want[f].tobytes(), (size, f)
        before = registry.value("executor.executions")
        empty = view.compute_columns(table.take(np.arange(0)))
        assert registry.value("executor.executions") == before
        assert all(empty[f].shape == (0,) for f in view.feature_names)

    def test_plans_are_cached_per_batch_size(self):
        view = standard_view()
        table = base_table(n=30)
        for size in (1, 5, 1, 5, 30):
            view.compute_columns(table.take(np.arange(size)))
        assert len(view.plan_cache) == 3
        assert view.plan_cache.stats.hits == 2


# ----------------------------------------------------------------------
# Incremental refresh
# ----------------------------------------------------------------------
def make_maintained(n=80, seed=0):
    dyn = DynamicTable.from_table(base_table(n, seed=seed), "orders")
    stream = dyn.subscribe()
    view = standard_view()
    return dyn, view, FeatureViewMaintainer(view, dyn, stream)


def new_rows(start, count, seed):
    rng = np.random.default_rng(seed)
    return Table.from_columns({
        "entity": np.arange(start, start + count),
        "price": rng.normal(10.0, 2.0, count),
        "qty": rng.integers(1, 50, count).astype(np.float64),
        "score": rng.uniform(-1.0, 1.0, count),
    })


class TestIncrementalRefresh:
    def test_folds_track_recompute_bitwise(self):
        dyn, view, maint = make_maintained()
        dyn.insert(new_rows(1000, 5, seed=1))
        dyn.delete(dyn.row_ids[:3])
        updated = dyn.snapshot().take(np.array([0]))
        dyn.update(
            (dyn.row_ids[0],),
            updated.with_column("price", [55.0]),
        )
        maint.drain()
        assert maint.stats.deltas_applied == 3
        assert maint.stats.recomputes == 0
        assert maint.parity_check()

    def test_chaos_recovers_by_lineage_recompute(self):
        dyn, view, maint = make_maintained()
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "features.refresh", rate=0.4, mode="raise"
        )
        with ChaosContext(plan) as chaos:
            for i in range(6):
                dyn.insert(new_rows(2000 + 10 * i, 4, seed=i))
                dyn.delete(dyn.row_ids[:2])
                maint.drain()
        assert maint.stats.injected_faults == chaos.injected_at(
            "features.refresh"
        )
        assert maint.staleness == 0
        assert maint.parity_check()

    def test_corrupt_deltas_detected_and_repaired(self):
        dyn, view, maint = make_maintained()
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "features.refresh", rate=0.4, mode="corrupt"
        )
        with ChaosContext(plan) as chaos:
            for i in range(6):
                dyn.insert(new_rows(3000 + 10 * i, 4, seed=i))
                maint.drain()
        assert maint.stats.corrupt_deltas == chaos.injected_at(
            "features.refresh"
        )
        assert maint.parity_check()

    def test_row_store_capacity_tracks_live_rows_not_rounds(self):
        """Freed slots are reused: 200 rounds of insert 1 % / delete 1 % /
        update 0.5 % leave the store no larger than its high-water live
        count plus one growth step (the per-row list it replaced grew by
        every inserted and updated row, forever)."""
        n, k, u = 400, 4, 2
        dyn, view, maint = make_maintained(n)
        high_water = n
        for r in range(200):
            dyn.insert(new_rows(10_000 + k * r, k, seed=r))
            maint.drain()
            high_water = max(high_water, len(maint.rows))
            rng = np.random.default_rng(r)
            dyn.delete(rng.choice(dyn.row_ids, size=k, replace=False))
            picks = rng.choice(dyn.row_ids, size=u, replace=False)
            at = np.searchsorted(dyn.row_ids, picks)
            dyn.update(picks, dyn.take(at).with_column(
                "price", dyn.column("price")[at] + 1.0
            ))
            maint.drain()
        assert maint.stats.rows_folded == 200 * (2 * k + u)
        assert maint.stats.recomputes == 0
        assert len(maint.rows) == dyn.num_rows == n
        assert high_water == n + k
        assert maint.rows.capacity <= high_water + high_water // 8
        assert maint.parity()

    def test_online_serves_from_maintained_rows(self):
        dyn, view, maint = make_maintained()
        dyn.insert(new_rows(5000, 3, seed=9))
        maint.drain()
        server = OnlineFeatureServer(view, maint)
        row = server.serve(5001)
        assert row.tobytes() == server.recompute_row(5001).tobytes()
        assert server.parity_check()


def row_store_state(rows):
    return len(rows), rows.capacity, rows.matrix().tobytes()


class TestRowStoreRefusals:
    """A refused ``put`` or ``drop`` names the entity and moves no slot."""

    def test_refused_drop_leaves_the_store_untouched(self):
        _, _, maint = make_maintained()
        rows = maint.rows
        before = row_store_state(rows)
        for batch, named in (([3, 4, 10_000, 5], "10000"), ([6, 7, 6], "6")):
            with pytest.raises(FeatureStoreError, match=named):
                rows.drop(batch)
            assert row_store_state(rows) == before
        assert maint.parity()

    def test_refused_put_leaves_the_store_untouched(self):
        _, view, maint = make_maintained()
        rows = maint.rows
        before = row_store_state(rows)
        batch = new_rows(900, 3, seed=4).with_column("entity", [900, 12, 901])
        with pytest.raises(FeatureStoreError, match="duplicate entity 12"):
            rows.put(view.entities_of(batch).tolist(),
                     view.as_matrix(view.compute_columns(batch)))
        assert row_store_state(rows) == before
        with pytest.raises(FeatureStoreError, match="duplicate entity 12"):
            rows.fold((900, 901, 902), batch, 1)
        assert row_store_state(rows) == before
        with pytest.raises(FeatureStoreError, match="duplicate entity 950"):
            rows.put([950, 951, 950], np.zeros((3, len(view.feature_names))))
        assert row_store_state(rows) == before
        assert maint.parity()


def keyed_table(keys):
    n = len(keys)
    return Table.from_columns({
        "entity": keys,
        "price": np.linspace(1.0, 2.0, n),
        "qty": np.arange(1.0, n + 1.0),
        "score": np.linspace(-1.0, 1.0, n),
    })


class TestEntityUniqueness:
    """Entity keys are refused on equality, with NaN equal to NaN and
    -0.0 equal to 0.0 (what ``np.unique`` and a dict agree on)."""

    DUPLICATES = {
        "int": [4, 1, 4],
        "float": [1.5, 2.5, 1.5],
        "signed zero": [0.0, 1.0, -0.0],
        "string": ["b", "a", "b"],
        "two NaN": [np.nan, 1.0, np.nan],
    }

    @pytest.mark.parametrize("kind", list(DUPLICATES))
    def test_duplicates_are_refused_on_every_path(self, kind):
        view = standard_view()
        table = keyed_table(self.DUPLICATES[kind])
        with pytest.raises(FeatureStoreError, match="duplicate"):
            FeatureStore().materialize(view, table)
        with pytest.raises(FeatureStoreError, match="duplicate"):
            FeatureRows(view).rebuild(table)
        rows = FeatureRows(view).rebuild(keyed_table([100, 101]))
        with pytest.raises(FeatureStoreError, match="duplicate"):
            rows.fold((7, 8, 9), table, 1)
        assert len(rows) == 2

    @pytest.mark.parametrize("keys", [["b", "a", "c"], [0.5, 1.0, 2.0]])
    def test_unique_keys_round_trip(self, keys):
        view = standard_view()
        table = keyed_table(keys)
        offline = FeatureStore().materialize(view, table)
        matrix = view.as_matrix(view.compute_columns(table))
        rows = FeatureRows(view).rebuild(keyed_table(keys[:1]))
        rows.fold((1, 2), table.take(np.arange(1, 3)), 1)
        for i, key in enumerate(keys):
            assert offline.row(key).tobytes() == matrix[i].tobytes()
            assert rows.row(key).tobytes() == matrix[i].tobytes()
        assert rows.same_bytes(table)

    def test_one_nan_key_is_unique(self):
        table = keyed_table([np.nan, 1.0, 2.0])
        assert standard_view().entities_of(table) is table.column("entity")


# ----------------------------------------------------------------------
# Drift gate on a real fleet
# ----------------------------------------------------------------------
def gated_server(
    view, offline, min_observations=100, shift=False, canary=True,
    num_shards=1, replication=1,
):
    """A gated endpoint ``ep`` over two versions of one model, v1
    deployed, on a ``num_shards``-shard fleet (one node by default)."""
    table_entities = offline.entities
    registry = ModelRegistry()
    X = offline.matrix()
    rng = np.random.default_rng(7)
    y = X @ rng.normal(size=X.shape[1]) + 1.0
    model = LinearRegression().fit(X, y)
    registry.register(
        "m", model, feature_fingerprint=view.version
    )
    registry.deploy("m", 1)
    registry.register("m", model, feature_fingerprint=view.version)
    server = ShardedServer(registry, num_shards, replication)
    server.create_endpoint("ep", "m")
    gate = DriftGate(view, offline, min_observations=min_observations)
    server.set_promotion_gate("ep", gate)
    if canary:
        server.set_canary("ep", 2, 0.5)
    rows = offline.slice(table_entities.tolist())
    if shift:
        rows = rows + 100.0
    for _ in range(3):
        gate.observe_many(rows)
    return server, gate


class TestDriftGate:
    def test_unshifted_stream_promotes(self):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server, gate = gated_server(view, offline)
        entry = server.promote("ep", 2)
        assert entry.version == 2
        assert gate.ledger()["promotes"] == 1
        assert gate.ledger()["holds"] == 0

    def test_shifted_stream_holds_and_rolls_back(self):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server, gate = gated_server(view, offline, shift=True)
        endpoint = server.shard("shard-0").server.endpoint("ep")
        assert endpoint.canary is not None
        with pytest.raises(PromotionHeldError) as excinfo:
            server.promote("ep", 2)
        assert excinfo.value.rolled_back
        assert endpoint.canary is None
        assert gate.ledger()["holds"] == 1
        assert gate.ledger()["rollbacks"] == 1
        # the stable alias never moved
        assert server.registry.deployed("m").version == 1

    def test_a_hold_without_a_canary_rolls_nothing_back(self):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server, gate = gated_server(view, offline, shift=True, canary=False)
        with pytest.raises(PromotionHeldError) as excinfo:
            server.promote("ep", 2)
        assert excinfo.value.rolled_back is False
        assert "held by gate" in str(excinfo.value)
        assert gate.ledger()["holds"] == 1
        assert gate.ledger()["rollbacks"] == 0
        assert server.registry.deployed("m").version == 1

    @pytest.mark.parametrize("shift", [False, True])
    def test_one_decision_computes_each_statistic_once(
        self, shift, monkeypatch
    ):
        """One decision reads one snapshot, and that snapshot computes
        each statistic once, over every feature's row at a time."""
        from repro.feateng import drift

        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server, gate = gated_server(view, offline, shift=shift)
        calls = {stat: [] for stat in ("psi", "ks", "tv")}
        for stat in calls:
            real = getattr(drift, f"{stat}_statistic")

            def counted(ref, cur, stat=stat, real=real):
                calls[stat].append((ref.shape, cur.shape))
                return real(ref, cur)

            monkeypatch.setattr(drift, f"{stat}_statistic", counted)
        held = None
        try:
            server.promote("ep", 2)
        except PromotionHeldError as exc:
            held = exc
        assert (held is not None) == shift
        if held is not None:
            assert held.rolled_back
            assert sorted(held.scores) == sorted(view.feature_names)
        matrix = (len(view.feature_names), 20)
        assert calls == dict.fromkeys(calls, [(matrix, matrix)])
        assert gate.ledger()["evaluations"] == 1

    def test_held_fleet_promote_writes_no_alias_and_invalidates_nothing(
        self, monkeypatch
    ):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        fabric, gate = gated_server(
            view, offline, shift=True, canary=False, num_shards=4,
            replication=2,
        )
        writes, invalidated = [], []
        real_set_alias = fabric.registry.set_alias
        monkeypatch.setattr(
            fabric.registry, "set_alias",
            lambda *args: writes.append(args) or real_set_alias(*args),
        )
        for sid in fabric.replicas_of("ep"):
            monkeypatch.setattr(
                fabric.shard(sid).server, "invalidate", invalidated.append
            )
        with pytest.raises(PromotionHeldError) as excinfo:
            fabric.promote("ep", 2)
        assert excinfo.value.rolled_back is False
        assert (writes, invalidated) == ([], [])
        assert gate.ledger()["rollbacks"] == 0
        # a staged fleet canary is what a drift hold rolls back
        fabric.set_canary("ep", 2, 0.5)
        with pytest.raises(PromotionHeldError) as excinfo:
            fabric.promote("ep", 2)
        assert excinfo.value.rolled_back is True
        assert gate.ledger()["rollbacks"] == 1
        assert all(
            fabric.shard(sid).server.endpoint("ep").canary is None
            for sid in fabric.replicas_of("ep")
        )
        assert invalidated == []
        assert fabric.registry.deployed("m").version == 1
        fabric.close()

    def test_fingerprint_mismatch_holds(self):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        registry = ModelRegistry()
        registry.register("m", None, feature_fingerprint="not-the-view")
        server = ShardedServer(registry, num_shards=1, replication=1)
        server.create_endpoint("ep", "m")
        server.set_promotion_gate(
            "ep", DriftGate(view, offline, min_observations=10)
        )
        with pytest.raises(PromotionHeldError, match="fingerprint mismatch"):
            server.promote("ep", 1)

    def test_legacy_entry_without_fingerprint_promotes(self):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        registry = ModelRegistry()
        registry.register("m", None)  # no feature_fingerprint recorded
        server = ShardedServer(registry, num_shards=1, replication=1)
        server.create_endpoint("ep", "m")
        server.set_promotion_gate(
            "ep", DriftGate(view, offline, min_observations=10)
        )
        assert server.promote("ep", 1).version == 1


def fold_row_by_row(rows, row):
    """The per-value fold ``observe_many`` replaced, kept as its oracle:
    one searchsorted and one ``np.add.at`` per feature per served row,
    into each oracle row's ``counts`` over its ``edges``."""
    for oracle, value in zip(rows, row):
        if np.isfinite(value):
            edges = oracle.edges
            idx = np.searchsorted(
                edges, np.clip(value, edges[0], edges[-1]), side="right"
            ) - 1
            np.add.at(oracle.counts, np.clip(idx, 0, len(edges) - 2), 1.0)


def textbook_edges(reference):
    ok = reference[np.isfinite(reference)]
    lo, hi = float(ok.min()), float(ok.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, 21)


def textbook_stats(name, observed, ref, cur):
    """The ``DriftStats`` repr of one feature from the 1-D formulas:
    PSI over epsilon-smoothed probabilities, KS and TV unsmoothed (0
    when a side is empty), drifted on PSI or KS over 0.25."""
    def smoothed(counts):
        if counts.sum() <= 0:
            return np.full(len(counts), 1.0 / len(counts))
        probs = np.clip(counts / counts.sum(), 1e-6, None)
        return probs / probs.sum()

    p, q = smoothed(ref), smoothed(cur)
    psi = float(np.sum((p - q) * np.log(p / q)))
    ks = tv = 0.0
    if ref.sum() > 0 and cur.sum() > 0:
        ks = float(np.max(np.abs(
            np.cumsum(ref) / ref.sum() - np.cumsum(cur) / cur.sum()
        )))
        tv = 0.5 * float(np.abs(ref / ref.sum() - cur / cur.sum()).sum())
    drifted = observed > 0 and (psi > 0.25 or ks > 0.25)
    return (
        f"DriftStats(name={name!r}, observed={observed!r}, psi={psi!r}, "
        f"ks={ks!r}, tv={tv!r}, drifted={drifted!r})"
    )


class OracleRow:
    """One feature's oracle state, folded by :func:`fold_row_by_row`:
    its own counts, or a view of a gate's served-count row."""

    def __init__(self, edges, counts=None):
        self.edges = edges
        self.counts = np.zeros(20) if counts is None else counts


def gate_rows(gate):
    """A gate's per-feature rows for :func:`fold_row_by_row`: each
    folds into the gate's own served-count matrix."""
    return [OracleRow(*pair) for pair in zip(gate.edges, gate.served_counts)]


class _NoCanary:
    def clear_canary(self, endpoint):
        return False


served_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-5.0, 600.0),  # inside and around the reference range
)


class TestGateBatchParity:
    @given(
        batches=st.lists(
            st.lists(
                st.lists(served_value, min_size=4, max_size=4), max_size=6
            ),
            max_size=6,
        ),
        flat_single_rows=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batches_fold_bitwise_like_single_rows(
        self, batches, flat_single_rows
    ):
        view = standard_view()
        offline = FeatureStore().materialize(view, base_table())
        batched = DriftGate(view, offline, min_observations=1)
        oracle = DriftGate(view, offline, min_observations=1)
        counted = get_registry().value("features.gate.observations")
        for batch in batches:
            if len(batch) == 1 and flat_single_rows:
                batched.observe_many(np.asarray(batch[0]))
            else:
                batched.observe_many(batch)
        rows = sum(len(batch) for batch in batches)
        assert get_registry().value("features.gate.observations") - counted == rows
        for batch in batches:
            for row in batch:
                fold_row_by_row(gate_rows(oracle), row)
                oracle.counts.inc("observations")
        assert batched.served_counts.tobytes() == oracle.served_counts.tobytes()
        assert repr(batched.drift_snapshot()) == repr(oracle.drift_snapshot())
        assert batched.ledger() == oracle.ledger()
        assert batched.observations == rows

    def test_observe_is_the_one_row_batch(self):
        view = standard_view()
        offline = FeatureStore().materialize(view, base_table())
        one, many = (DriftGate(view, offline) for _ in range(2))
        for row in offline.matrix():
            one.observe_many(row)
        many.observe_many(offline.matrix())
        assert repr(one.drift_snapshot()) == repr(many.drift_snapshot())
        assert one.ledger() == many.ledger()
        with pytest.raises(FeatureStoreError, match="3 values for 4 features"):
            one.observe_many(np.zeros(3))

    @pytest.mark.parametrize("rows", [
        np.zeros((5, 3)), np.zeros((2, 8)), np.zeros(8), [[1.0]], 1.0,
    ])
    def test_wrong_width_is_a_typed_error(self, rows):
        view = standard_view()
        gate = DriftGate(view, FeatureStore().materialize(view, base_table()))
        with pytest.raises(FeatureStoreError, match="for 4 features"):
            gate.observe_many(rows)
        assert gate.ledger()["observations"] == 0

    @pytest.mark.parametrize("door", [
        "string values", "ragged", "rank-3", "string reference",
        "NaN min_observations", "negative min_observations",
    ])
    def test_bad_inputs_are_typed_errors(self, door):
        """Each door refuses with the repo's error naming the view (or
        the reference), never a bare numpy error or a silent fold."""
        view = standard_view()
        offline = FeatureStore().materialize(view, base_table())
        calls = {
            "string values": lambda gate: gate.observe_many([["x", "y"]]),
            "ragged": lambda gate: gate.observe_many([[1.0, 2.0], [1.0]]),
            "rank-3": lambda gate: gate.observe_many(np.ones((2, 2, 4))),
        }
        gate = DriftGate(view, offline)
        if door in calls:
            with pytest.raises(FeatureStoreError, match="'orders'"):
                calls[door](gate)
            assert gate.ledger()["observations"] == 0
            assert not gate.served_counts.any()
        elif door == "string reference":
            columns = dict(offline.columns, spend=np.array(["a", "b"]))
            with pytest.raises(SchemaError, match="not numeric"):
                DriftGate(view, columns)
        else:
            bound = float("nan") if door.startswith("NaN") else -3
            with pytest.raises(FeatureStoreError, match="'orders'"):
                DriftGate(view, offline, min_observations=bound)


reference_column = st.one_of(
    st.floats(-1e3, 1e3).map(lambda v: [v] * 5),  # constant: unit span
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30).map(
        lambda values: values + [float("nan"), float("inf")]
    ),
)
wide_value = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.floats(-3e3, 3e3),  # in range, and out of it on either side
)


class TestMatrixGateOracle:
    @given(
        references=st.lists(reference_column, min_size=4, max_size=4),
        batches=st.lists(
            st.lists(st.lists(wide_value, min_size=4, max_size=4),
                     max_size=8),
            max_size=5,
        ),
        nan_columns=st.lists(st.booleans(), min_size=4, max_size=4),
        min_observations=st.integers(0, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_matrix_gate_matches_the_per_feature_oracle(
        self, references, batches, nan_columns, min_observations
    ):
        """Fold and snapshot over the whole (features × buckets) matrix
        equal the per-column searchsorted fold and the 1-D formulas,
        bit for bit, and so does the hold/promote decision."""
        view = standard_view()
        names = view.feature_names
        columns = {
            f: np.asarray(r, dtype=np.float64)
            for f, r in zip(names, references)
        }
        gate = DriftGate(view, columns, min_observations=min_observations)
        edges = [textbook_edges(columns[f]) for f in names]
        oracle = [OracleRow(e) for e in edges]
        finite = np.zeros(4, dtype=np.int64)  # observations per feature
        for batch in batches:
            batch = np.asarray(batch, dtype=np.float64).reshape(-1, 4)
            batch[:, np.asarray(nan_columns)] = np.nan
            gate.observe_many(batch)
            finite += np.isfinite(batch).sum(axis=0)
            for row in batch:
                fold_row_by_row(oracle, row)
        snapshot = gate.drift_snapshot()
        hold = False
        for j, f in enumerate(names):
            assert gate.edges[j].tobytes() == edges[j].tobytes()
            assert gate.served_counts[j].tobytes() == oracle[j].counts.tobytes()
            assert snapshot[f].observed == finite[j]
            if nan_columns[j]:
                assert snapshot[f].observed == 0
            reference = OracleRow(edges[j])
            for value in columns[f]:
                fold_row_by_row([reference], [value])
            stats = textbook_stats(
                f, int(finite[j]), reference.counts, oracle[j].counts
            )
            assert repr(snapshot[f]) == stats
            hold = hold or (
                "drifted=True" in stats
                and finite[j] >= min_observations
            )
        try:
            gate.authorize(_NoCanary(), "ep")
        except PromotionHeldError:
            assert hold
        else:
            assert not hold
