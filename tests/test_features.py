"""Feature store: versioning, offline/online parity, refresh, gating."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FeatureStoreError, PromotionHeldError
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
from repro.materialize import MaterializationStore
from repro.ml import LinearRegression
from repro.obs import get_registry
from repro.resilience import ChaosContext, FaultPlan, chaos_seed_from_env
from repro.serving import ModelServer
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
        from repro.lang.dsl import scalar_input

        with pytest.raises(FeatureStoreError):
            FeatureView("v", "entity", {"bad": lambda c: scalar_input("k")})


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
        shared = MaterializationStore(min_flops=0.0)
        store = FeatureStore(shared)
        view = standard_view()
        store.materialize(view, table)
        fp = view.fingerprint(table)
        assert shared.lineage.children(fp.key) == (view.base_fingerprint(table),) \
            or view.base_fingerprint(table) in tuple(
                shared.lineage.children(fp.key)
            )

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


FEATURE_POOL = [
    ("spend", lambda c: c.price * c.qty),
    ("root", lambda c: rsqrt(c.price * c.price + 1.0)),
    ("sig", lambda c: 1.0 / (1.0 + rexp(-c.score))),
    ("scaled", lambda c: (c.price - 10.0) / 2.0),
    ("powed", lambda c: (c.qty + 1.0) ** 0.5),
    ("mix", lambda c: c.price * 0.25 + c.qty * c.score),
    ("logish", lambda c: rexp(c.score * 0.5) - 1.0),
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


# ----------------------------------------------------------------------
# Drift gate on a real ModelServer
# ----------------------------------------------------------------------
def gated_server(view, offline, min_observations=100, shift=False):
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
    server = ModelServer(registry)
    server.create_endpoint("ep", "m")
    gate = DriftGate(view, offline, min_observations=min_observations)
    server.set_promotion_gate("ep", gate)
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
        assert server.endpoint("ep").canary is not None
        with pytest.raises(PromotionHeldError) as excinfo:
            server.promote("ep", 2)
        assert excinfo.value.rolled_back
        assert server.endpoint("ep").canary is None
        assert gate.ledger()["holds"] == 1
        assert gate.ledger()["rollbacks"] == 1
        # the stable alias never moved
        assert server.registry.deployed("m").version == 1

    def test_fingerprint_mismatch_holds(self):
        table = base_table()
        view = standard_view()
        offline = FeatureStore().materialize(view, table)
        registry = ModelRegistry()
        registry.register("m", None, feature_fingerprint="not-the-view")
        server = ModelServer(registry)
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
        server = ModelServer(registry)
        server.create_endpoint("ep", "m")
        server.set_promotion_gate(
            "ep", DriftGate(view, offline, min_observations=10)
        )
        assert server.promote("ep", 1).version == 1


def fold_row_by_row(gate, row):
    """The per-value fold ``observe_many`` replaced, kept as its oracle:
    one searchsorted and one ``np.add.at`` per feature per served row."""
    for monitor, value in zip(gate.monitors.values(), row):
        if np.isfinite(value):
            edges = monitor.edges
            idx = np.searchsorted(
                edges, np.clip(value, edges[0], edges[-1]), side="right"
            ) - 1
            np.add.at(monitor.counts, np.clip(idx, 0, len(edges) - 2), 1.0)
            monitor.observed += 1
    gate.counts.inc("observations")


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
                fold_row_by_row(oracle, row)
        for fname, monitor in batched.monitors.items():
            assert monitor.counts.tobytes() == oracle.monitors[fname].counts.tobytes()
            assert monitor.observed == oracle.monitors[fname].observed
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
