"""Feature store: versioning, offline/online parity, refresh, gating."""

from __future__ import annotations

import pickle
import tracemalloc

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
from repro.incremental import (
    DynamicTable,
    GramCofactorState,
    IncrementalMaintainer,
    snap_to_grid,
)
from repro.lang.dsl import exp as rexp
from repro.lang.dsl import sqrt as rsqrt
from repro.lifecycle import ModelRegistry
from repro.ml import LinearRegression
from repro.obs import get_registry
from repro.resilience import ChaosContext, FaultPlan, chaos_seed_from_env
from repro.runtime import execute
from repro.serving import ShardedServer
from repro.storage.table import Table
from tests.test_incremental import delta_of, fold_one


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

    def test_a_hit_holds_the_one_read_only_matrix(self):
        """The store caches one (n, F) matrix: a hit serves that very
        matrix (no second block is allocated), ``columns`` are views of
        it, and no handle can write through to the cached bytes."""
        table = base_table(n=20_000)
        view = FeatureView("wide", "entity", dict(FEATURE_POOL))
        store = FeatureStore()
        first = store.materialize(view, table)
        tracemalloc.start()
        try:
            second = store.materialize(view, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = first.rows._data
        assert second.from_cache and second.rows._data is held
        assert not held.flags.writeable
        assert peak < held.nbytes  # the hit's slot map and hashing only
        for j, fname in enumerate(view.feature_names):
            column = second.columns[fname]
            assert np.shares_memory(column, held)
            assert column.tobytes() == held[:, j].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        assert second.matrix().tobytes() == held.tobytes()

    def test_a_string_column_is_a_typed_error(self):
        """A feature over a non-numeric column names the view and the
        column instead of numpy's conversion error."""
        table = base_table(n=4).with_column("price", ["a", "b", "c", "d"])
        with pytest.raises(FeatureStoreError, match="'orders'.*'price'"):
            FeatureStore().materialize(standard_view(), table)
        dyn = DynamicTable.from_table(table, "orders")
        with pytest.raises(FeatureStoreError, match="'price'"):
            FeatureViewMaintainer(standard_view(), dyn, dyn.subscribe())


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

    @pytest.mark.parametrize("entities", [
        [1, [2]], [[1, 2], [3, 4]], [[1, 2]], [{}], [3, {}],
    ])
    def test_a_malformed_key_list_has_no_row(self, entities):
        """A key list numpy cannot make one 1-D integer array of (ragged,
        nested, or holding a dict) is served key by key, so its first bad
        key raises "has no row" like any unknown entity."""
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server = OnlineFeatureServer(view, offline, table)
        with pytest.raises(FeatureStoreError, match="has no row"):
            server.serve_many(entities)

    def test_an_unhashable_key_has_no_row_in_a_dict_keyed_view(self):
        table = keyed_table(["a", "b"])
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server = OnlineFeatureServer(view, offline, table)
        with pytest.raises(FeatureStoreError, match=r"\['b'\] has no row"):
            server.serve_many(["a", ["b"]])

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_an_unknown_entity_costs_one_lookup(self, k, monkeypatch):
        """A clean call resolves every entity from one lookup: an unknown
        entity at position k raises with k + 1 serves counted and no
        per-entity ``slot`` read."""
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        server = OnlineFeatureServer(view, offline, table)
        reads = []
        slot = FeatureRows.slot

        def counted(rows, entity):
            reads.append(entity)
            return slot(rows, entity)

        monkeypatch.setattr(FeatureRows, "slot", counted)
        entities = [3, 7, 11, 5, 9, 13, 17]
        entities[k] = 10_000
        with pytest.raises(FeatureStoreError, match="10000 has no row"):
            server.serve_many(entities)
        assert reads == [] and server.serves == k + 1

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
            assert list(want) == list(view.feature_names)
            assert got.dtype == np.float64
            assert got.shape == (size, len(view.feature_names))
            for j, f in enumerate(view.feature_names):
                assert got[:, j].tobytes() == want[f].tobytes(), (size, f)
        before = registry.value("executor.executions")
        empty = view.compute_columns(table.take(np.arange(0)))
        assert registry.value("executor.executions") == before
        assert empty.shape == (0, len(view.feature_names))

    def test_plans_are_cached_per_batch_size(self):
        view = standard_view()
        table = base_table(n=30)
        for size in (1, 5, 1, 5, 30):
            view.compute_columns(table.take(np.arange(size)))
        assert len(view.plan_cache) == 3
        assert view.plan_cache.stats.hits == 2

    def test_a_new_batch_size_compiles_nothing(self, monkeypatch):
        """The view compiles once; each new size re-shapes that plan."""
        view = standard_view()
        monkeypatch.setattr("repro.features.view.compile_expr", None)
        table = base_table(n=30)
        for size in (1, 7, 30):
            assert len(view.compute_columns(table.take(np.arange(size))))
        assert len(view.plan_cache) == 3


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


def store_bytes(rows):
    """The bytes of the store's slot map, free stack and row matrix."""
    names = ("_slots", "_free", "_data")
    return [pickle.dumps(getattr(rows, name)) for name in names]


class TestRowStoreRefusals:
    """A refused delta names the entity and moves no slot."""

    def test_refused_drop_leaves_the_store_untouched(self):
        _, _, maint = make_maintained()
        rows = maint.rows
        before = row_store_state(rows)
        for batch, named in (
            ([3, 4, 10_000, 5], "10000"), ([6, 7, 6], "duplicate")
        ):
            with pytest.raises(FeatureStoreError, match=named):
                fold_one(rows, delta_of("delete", old_rows=keyed_table(batch)))
            assert row_store_state(rows) == before
        assert maint.parity()

    def test_refused_put_leaves_the_store_untouched(self):
        _, _, maint = make_maintained()
        rows = maint.rows
        before = row_store_state(rows)
        batch = new_rows(900, 3, seed=4).with_column("entity", [900, 12, 901])
        with pytest.raises(FeatureStoreError, match="duplicate entity 12"):
            fold_one(rows, delta_of("insert", batch))
        assert row_store_state(rows) == before
        with pytest.raises(FeatureStoreError, match="duplicate"):
            fold_one(rows, delta_of("insert", keyed_table([950, 951, 950])))
        assert row_store_state(rows) == before
        assert maint.parity()

    @pytest.mark.parametrize("keys", [
        np.arange(10),
        np.arange(10) * 1.5,
        np.array([f"e{i}" for i in range(10)], dtype=object),
    ])
    def test_refused_update_moves_nothing(self, keys):
        """An update that would give a kept entity's key to another row
        is refused whole: the row it would release stays."""
        dyn = DynamicTable.from_table(keyed_table(keys), "orders")
        maint = FeatureViewMaintainer(standard_view(), dyn, dyn.subscribe())
        before = store_bytes(maint.rows)
        dyn.update([0], keyed_table(keys[5:6]))
        refused = f"duplicate entity {keys[5:6].tolist()[0]!r}"
        with pytest.raises(FeatureStoreError, match=refused):
            maint.drain()
        assert store_bytes(maint.rows) == before
        assert maint.applied_version == 0
        rows = maint.rows
        assert rows.row(keys[0]).tobytes() == rows.take([0]).tobytes()

    def test_a_drain_left_behind_raises_instead_of_returning(self):
        """The refused delta has left the stream, so the next drain finds
        nothing to fold: it raises, naming the view and both versions,
        instead of returning with the rows one version stale."""
        dyn = DynamicTable.from_table(keyed_table(np.arange(10)), "orders")
        maint = FeatureViewMaintainer(standard_view(), dyn, dyn.subscribe())
        dyn.update([0], keyed_table([5]))
        with pytest.raises(FeatureStoreError, match="duplicate entity 5"):
            maint.drain()
        for _ in range(2):
            with pytest.raises(
                FeatureStoreError, match="view 'orders' is at version 0, "
                "its table 'orders' at 1: no delta is pending"
            ):
                maint.drain()
        assert maint.staleness == 1

    @pytest.mark.parametrize("kind", ["update", "insert", "delete"])
    def test_a_materialization_refuses_a_fold(self, kind):
        """A store's rows are its cached read-only matrix: a fold is a
        typed refusal naming the view, raised before anything moves."""
        table = base_table(40, seed=2)
        rows = FeatureStore().materialize(standard_view(), table).rows
        before = store_bytes(rows)
        kept, fresh = table.take(np.arange(3)), new_rows(900, 3, seed=4)
        delta = {
            "update": delta_of("update", kept, kept),
            "insert": delta_of("insert", fresh),
            "delete": delta_of("delete", old_rows=kept),
        }[kind]
        with pytest.raises(FeatureStoreError, match="view 'orders'.*read-only"):
            fold_one(rows, delta)
        assert store_bytes(rows) == before


GRID_FEATURES = ["x0", "x1", "x2"]


def grid_rows(keys, seed):
    """Rows keyed by ``keys`` whose features and label sit on the
    exact-arithmetic grid, so folded Gram moments must equal a rebuild's
    bits."""
    X = snap_to_grid(np.random.default_rng(seed).normal(size=(len(keys), 3)))
    return Table.from_columns(
        {"entity": keys}
        | {c: X[:, j] for j, c in enumerate(GRID_FEATURES)}
        | {"y": snap_to_grid(X.sum(axis=1))}
    )


#: (kind, rows, seed): an update keeps its keys, moves its first key to
#: a fresh entity, or swaps its first two keys
fold_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "keep", "move", "swap"]),
        st.integers(1, 4),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=10,
)


class TestFoldContract:
    """Both maintainers fold one schedule off one table, each delta whole
    (``fold(delta)``); after every drain their state is a rebuild's, the
    rows are what ``materialize`` gives, and ``rows_folded`` is the
    closed form: one per row id for the keyed view, both halves of an
    update for the unkeyed aggregates."""

    @pytest.mark.parametrize("key", [int, str])
    @given(schedule=fold_ops)
    @settings(max_examples=25, deadline=None)
    def test_every_drain_equals_a_rebuild(self, key, schedule):
        def names(start, count):
            ids = range(start, start + count)
            return np.arange(start, start + count) if key is int else [
                f"e{i}" for i in ids
            ]

        dyn = DynamicTable.from_table(grid_rows(names(0, 12), 0), "events")
        view = FeatureView("events", "entity", {
            "cross": lambda c: c.x0 * c.x1,
            "shifted": lambda c: c.x2 + 1.0,
        })
        model = IncrementalMaintainer(dyn, dyn.subscribe(), GRID_FEATURES, "y")
        refresh = FeatureViewMaintainer(view, dyn, dyn.subscribe())
        assert (refresh.rows._slots.where is None) == (key is str)
        next_entity, folded = 12, {"insert": 0, "delete": 0, "update": 0}
        for kind, size, seed in schedule:
            rng = np.random.default_rng(seed)
            if kind == "insert" or dyn.num_rows <= size + 1:
                dyn.insert(grid_rows(names(next_entity, size), seed))
                next_entity += size
                kind = "insert"
            elif kind == "delete":
                dyn.delete(rng.choice(dyn.row_ids, size=size, replace=False))
            else:
                picks = rng.choice(dyn.row_ids, size=size, replace=False)
                at = np.searchsorted(dyn.row_ids, picks)
                keys = dyn.column("entity")[at]
                if kind == "move":
                    keys[0] = names(next_entity, 1)[0]
                    next_entity += 1
                elif kind == "swap" and size > 1:
                    keys[[0, 1]] = keys[[1, 0]]
                dyn.update(picks, grid_rows(keys, seed))
                kind = "update"
            folded[kind] += size
            model.drain()
            refresh.drain()
            assert model.parity() and refresh.parity()
            snap = dyn.snapshot()
            entities = snap.column("entity").tolist()
            offline = FeatureStore().materialize(view, snap)
            assert len(refresh.rows) == len(entities)
            assert (refresh.rows.slice(entities).tobytes()
                    == offline.slice(entities).tobytes())
            kept = model.gram_state.moments()
            fresh = GramCofactorState(GRID_FEATURES, "y").rebuild(snap)
            fresh = fresh.moments()
            for a, b in zip(vars(kept).values(), vars(fresh).values()):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert refresh.stats.rows_folded == sum(folded.values())
            assert model.stats.rows_folded == (
                sum(folded.values()) + folded["update"]
            )


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
        "two None": ["a", None, None],
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
            fold_one(rows, delta_of("insert", table))
        assert len(rows) == 2

    @pytest.mark.parametrize("keys", [
        ["b", "a", "c"], [0.5, 1.0, 2.0], ["b", None, "c"],
    ])
    def test_unique_keys_round_trip(self, keys):
        view = standard_view()
        table = keyed_table(keys)
        offline = FeatureStore().materialize(view, table)
        matrix = view.compute_columns(table)
        rows = FeatureRows(view).rebuild(keyed_table(keys[:1]))
        fold_one(rows, delta_of("insert", table.take(np.arange(1, 3))))
        for i, key in enumerate(keys):
            assert offline.row(key).tobytes() == matrix[i].tobytes()
            assert rows.row(key).tobytes() == matrix[i].tobytes()
        assert rows.same_bytes(table)

    def test_one_nan_key_is_unique(self):
        table = keyed_table([np.nan, 1.0, 2.0])
        assert standard_view().entities_of(table) is table.column("entity")


class TestIntegerSlots:
    """Integer keys are direct-addressed, and read like the dict they
    replaced: an absent or fractional key has no row, an integral float
    finds its integer."""

    def test_reads_match_a_dict(self):
        rows = FeatureRows(standard_view()).rebuild(keyed_table([5, 0, 9]))
        assert rows._slots.where is not None
        assert rows.slot(np.int64(9)) == rows.slot(9) == 2
        assert rows.slot(9.0) == rows.slot(np.float64(9.0)) == 2
        assert rows.row(0.0).tobytes() == rows.row(0).tobytes()
        assert rows.slice([9.0, 5.0]).tobytes() == rows.take([2, 0]).tobytes()
        for bad in (-1, 10, 2**70, 3.5, "5", None):
            with pytest.raises(FeatureStoreError, match="has no row"):
                rows.slot(bad)
        with pytest.raises(FeatureStoreError, match="entity 7 has no row"):
            rows.slice([5, 7, 0])
        assert rows.slice([9, 5]).tobytes() == rows.take([2, 0]).tobytes()
        assert rows.slice([]).shape == (0, len(rows.view.feature_names))

    def test_keys_outside_the_dense_range_move_to_a_dict(self):
        full = keyed_table([3, 1, 2, -5, 2**40])
        rows = FeatureRows(standard_view()).rebuild(full.take(np.arange(3)))
        fold_one(rows, delta_of("insert", full.take(np.array([3]))))
        assert rows._slots.where is not None and rows.slot(-5) == 3
        fold_one(rows, delta_of("insert", full.take(np.array([4]))))
        assert rows._slots.where is None
        assert rows.same_bytes(full)
        fold_one(rows, delta_of("delete", old_rows=full.take(np.array([3, 0]))))
        assert rows.same_bytes(full.take(np.array([1, 2, 4])))

    def test_rising_keys_keep_the_range_bounded(self):
        """Churn that only ever inserts new, higher keys re-lays the
        array from its smallest live key, so dead low ids leave it."""
        def batch(low, high):
            keys = np.arange(low, high)
            return Table.from_columns({
                "entity": keys, "price": 1.0 + keys / 1e4,
                "qty": keys % 7 + 1.0, "score": np.cos(keys),
            })

        rows = FeatureRows(standard_view()).rebuild(batch(0, 100))
        for low in range(0, 5_000, 10):
            fold_one(rows, delta_of("delete", old_rows=batch(low, low + 10)))
            fold_one(rows, delta_of("insert", batch(low + 100, low + 110)))
        assert rows._slots.where is not None
        assert rows._slots.base > 4_000 and len(rows._slots.where) < 1_000
        assert rows.same_bytes(batch(5_000, 5_100))


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
