"""Unit tests for the incremental-maintenance subsystem (repro.incremental).

Bit-parity assertions run on exact-arithmetic grid data (see
``repro.incremental.aggregates``), where *every* accumulation order of
the gram/cofactor sums is exactly representable in float64 — so the
maintained aggregates must equal full recomputation bitwise, not just
approximately. Chaos tests assert ledger consistency rather than fixed
fault counts, so they pass under any ``REPRO_CHAOS_SEED`` (CI runs two).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_grid_regression
from repro.errors import IncrementalError
from repro.features import FeatureView, FeatureViewMaintainer
from repro.incremental import (
    ContinuousTrainer,
    DynamicTable,
    GramCofactorState,
    IncrementalMaintainer,
)
from repro.lifecycle import ModelRegistry
from repro.ml import LinearRegression
from repro.obs import get_registry
from repro.resilience import ChaosContext, FaultPlan
from repro.serving import ModelServer
from repro.serving.server import compile_linear_scorer
from repro.storage import Table
from repro.storage.lineage import table_fingerprint

D = 5
FEATURES = [f"f{j}" for j in range(D)]


def grid_table(n, seed):
    X, y = make_grid_regression(n, D, seed=seed)
    return Table.from_matrix(X, label=y)


def make_maintained(n=300, seed=0):
    dyn = DynamicTable.from_table(grid_table(n, seed), name="events")
    stream = dyn.subscribe()
    maintainer = IncrementalMaintainer(dyn, stream, FEATURES, "label")
    return dyn, stream, maintainer


class TestDynamicTable:
    def test_mutations_bump_version_monotonically(self):
        dyn, _, _ = make_maintained(50, seed=1)
        assert dyn.version == 0
        dyn.insert(grid_table(5, seed=2))
        dyn.delete(dyn.row_ids[:3])
        dyn.update(dyn.row_ids[:2], grid_table(2, seed=3))
        assert dyn.version == 3

    def test_row_ids_are_stable_and_never_reused(self):
        dyn = DynamicTable.from_table(grid_table(10, seed=1))
        dyn.delete(dyn.row_ids[:5])
        survivors = set(int(i) for i in dyn.row_ids)
        delta = dyn.insert(grid_table(5, seed=2))
        assert set(delta.row_ids).isdisjoint(range(10))
        assert survivors < set(int(i) for i in dyn.row_ids)

    def test_copy_on_write_preserves_snapshots(self):
        dyn = DynamicTable.from_table(grid_table(20, seed=1))
        snap = dyn.snapshot()
        before = snap.column("f0").copy()
        dyn.update(dyn.row_ids, grid_table(20, seed=9))
        dyn.delete(dyn.row_ids[:10])
        assert np.array_equal(snap.column("f0"), before)

    def test_mutation_changes_lineage_fingerprint(self):
        dyn = DynamicTable.from_table(grid_table(20, seed=1))
        before = table_fingerprint(dyn)
        dyn.insert(grid_table(1, seed=2))
        assert table_fingerprint(dyn) != before

    def test_delete_unknown_row_id_raises(self):
        dyn = DynamicTable.from_table(grid_table(5, seed=1))
        with pytest.raises(IncrementalError):
            dyn.delete([999])

    def test_repeated_row_id_in_one_mutation_raises(self):
        # one removed row must never reach the aggregates twice
        dyn, stream, _ = make_maintained(5, seed=1)
        with pytest.raises(IncrementalError, match="row id 3 repeated"):
            dyn.delete([3, 1, 3])
        with pytest.raises(IncrementalError, match="row id 2 repeated"):
            dyn.update([2, 2], grid_table(2, seed=4))
        assert dyn.version == 0 and dyn.num_rows == 5
        assert stream.pending() == 0

    def test_schema_mismatch_raises(self):
        dyn = DynamicTable.from_table(grid_table(5, seed=1))
        with pytest.raises(IncrementalError):
            dyn.insert(Table.from_columns({"wrong": [1.0]}))

    def test_empty_mutations_raise(self):
        dyn = DynamicTable.from_table(grid_table(5, seed=1))
        with pytest.raises(IncrementalError):
            dyn.delete([])


class TestDeltaAndStream:
    def test_deltas_are_invertible_and_checksummed(self):
        dyn = DynamicTable.from_table(grid_table(10, seed=1))
        stream = dyn.subscribe()
        removed = dyn.snapshot().take(np.arange(3))
        dyn.delete(dyn.row_ids[:3])
        delta = stream.poll()
        assert delta.kind == "delete"
        assert delta.old_rows == removed
        assert delta.verify()

    def test_corrupted_copy_fails_verification(self):
        dyn = DynamicTable.from_table(grid_table(10, seed=1))
        delta = dyn.insert(grid_table(2, seed=2))
        assert delta.verify()
        assert not delta.corrupted().verify()

    def test_stream_is_fifo_with_consecutive_versions(self):
        dyn, stream, _ = make_maintained(20, seed=1)
        for i in range(4):
            dyn.insert(grid_table(1, seed=10 + i))
        versions = [d.version for d in iter(stream.poll, None)]
        assert versions == [1, 2, 3, 4]
        assert stream.pending() == 0

    def test_multiple_subscribers_see_every_delta(self):
        dyn = DynamicTable.from_table(grid_table(10, seed=1))
        a, b = dyn.subscribe(), dyn.subscribe()
        dyn.insert(grid_table(2, seed=2))
        assert a.pending() == b.pending() == 1


class TestGramCofactorState:
    def test_fold_matches_recompute_bitwise(self):
        dyn, _, m = make_maintained(200, seed=3)
        dyn.insert(grid_table(30, seed=4))
        dyn.delete(dyn.row_ids[10:40])
        dyn.update(dyn.row_ids[:15], grid_table(15, seed=5))
        m.drain()
        assert m.checkpoint_parity()

    def test_solve_matches_snapshot_retrain_bitwise(self):
        dyn, _, m = make_maintained(200, seed=3)
        dyn.insert(grid_table(20, seed=4))
        dyn.delete(dyn.row_ids[:20])
        m.drain()
        snap = dyn.snapshot()
        fit = LinearRegression(solver="normal", l2=0.5, fit_intercept=False)
        fit.fit(snap.to_matrix(FEATURES), snap.column("label"))
        assert np.array_equal(m.gram_state.solve_ridge(0.5), fit.coef_)

    def test_off_grid_data_stays_within_tolerance(self):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((150, D)), rng.standard_normal(150)
        table = Table.from_matrix(X, label=y)
        state = GramCofactorState(FEATURES, "label").rebuild(table)
        extra = Table.from_matrix(
            rng.standard_normal((30, D)), label=rng.standard_normal(30)
        )
        state.fold((), extra, 1)
        state.fold((), extra, -1)
        fresh = GramCofactorState(FEATURES, "label").rebuild(table)
        drift = state.moments() - fresh.moments()
        assert max(
            np.abs(drift.gram).max(), np.abs(drift.xty).max(), abs(drift.yty)
        ) < 1e-9

    def test_delete_cancels_insert_exactly_on_grid(self):
        base = grid_table(100, seed=1)
        state = GramCofactorState(FEATURES, "label").rebuild(base)
        gram0 = state.moments().gram.copy()
        extra = grid_table(40, seed=2)
        assert state.fold((), extra, 1) == state.fold((), extra, -1) == 40
        assert np.array_equal(state.moments().gram, gram0)
        assert state.same_bytes(base)


def run_stream(maintainer, dyn, rounds=8):
    """A fixed mutation schedule (same bytes under any chaos seed)."""
    for i in range(rounds):
        dyn.insert(grid_table(6, seed=100 + i))
        dyn.delete(dyn.row_ids[: 3 + (i % 2)])
        dyn.update(dyn.row_ids[:2], grid_table(2, seed=200 + i))
        maintainer.drain()


class TestMaintainerChaos:
    """Seed-independent: assertions hold for any REPRO_CHAOS_SEED."""

    def test_injected_faults_trigger_recompute_never_staleness(self):
        from repro.resilience import chaos_seed_from_env

        dyn, _, m = make_maintained(100, seed=3)
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "incremental.apply", rate=0.3, mode="raise"
        )
        with ChaosContext(plan) as chaos:
            run_stream(m, dyn)
        assert m.stats.injected_faults == chaos.injected_at("incremental.apply")
        assert m.stats.recomputes >= m.stats.injected_faults
        assert m.staleness == 0
        assert m.checkpoint_parity()

    def test_chaotic_run_bit_identical_to_clean_run(self):
        from repro.resilience import chaos_seed_from_env

        clean_dyn, _, clean = make_maintained(100, seed=3)
        run_stream(clean, clean_dyn)
        dyn, _, m = make_maintained(100, seed=3)
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "incremental.apply", rate=0.25, mode="raise"
        )
        with ChaosContext(plan):
            run_stream(m, dyn)
        kept, wanted = m.gram_state.moments(), clean.gram_state.moments()
        assert np.array_equal(kept.gram, wanted.gram)
        assert np.array_equal(kept.xty, wanted.xty)

    def test_corrupt_mode_is_caught_by_checksum(self):
        from repro.resilience import chaos_seed_from_env

        dyn, _, m = make_maintained(100, seed=3)
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "incremental.apply", rate=0.3, mode="corrupt"
        )
        with ChaosContext(plan) as chaos:
            run_stream(m, dyn)
        assert m.stats.corrupt_deltas == chaos.injected_at("incremental.apply")
        assert m.stats.recomputes >= m.stats.corrupt_deltas
        assert m.checkpoint_parity()

    def test_dropped_delta_detected_by_version_gap(self):
        dyn, stream, m = make_maintained(100, seed=3)
        dyn.insert(grid_table(5, seed=4))
        stream.drop_next()  # lost in transit
        dyn.insert(grid_table(5, seed=5))
        m.drain()
        assert m.stats.dropped_deltas == 1
        assert m.checkpoint_parity()

    def test_every_delta_is_accounted_for(self):
        from repro.resilience import chaos_seed_from_env

        dyn, stream, m = make_maintained(100, seed=3)
        plan = FaultPlan(seed=chaos_seed_from_env()).inject(
            "incremental.apply", rate=0.2, mode="raise"
        )
        with ChaosContext(plan):
            run_stream(m, dyn)
        consumed = stream.published
        accounted = (
            m.stats.deltas_applied
            + m.stats.injected_faults
            + m.stats.corrupt_deltas
            + m.stats.dropped_deltas
            + m.stats.skipped_stale
        )
        assert accounted == consumed

    def test_obs_counters_mirror_ledger(self):
        dyn, _, m = make_maintained(80, seed=3)
        run_stream(m, dyn, rounds=3)
        assert get_registry().value("incremental.deltas_applied") == m.stats.deltas_applied
        assert get_registry().value("incremental.rows_folded") == m.stats.rows_folded
        assert get_registry().value("incremental.staleness") == 0.0


class TestContinuousTrainerEndToEnd:
    def build(self, l2=0.25):
        dyn, stream, m = make_maintained(250, seed=3)
        registry = ModelRegistry()
        trainer = ContinuousTrainer(m, registry, l2=l2, refresh_every=1)
        entry = trainer.refresh()
        server = ModelServer(registry)
        server.create_endpoint("scores", trainer.model_name, output="margin")
        server.promote("scores", entry.version)
        trainer.server, trainer.endpoint = server, "scores"
        return dyn, m, registry, trainer, server

    def test_delta_batch_refreshes_served_predictions(self):
        dyn, _, _, trainer, server = self.build()
        row = dyn.to_matrix(FEATURES)[0]
        before = server.predict("scores", row, key="u1")
        assert server.predict("scores", row, key="u1") == before  # cached
        hits_before = server.endpoint("scores").cache.stats.hits
        assert hits_before >= 1

        dyn.insert(grid_table(40, seed=7))
        dyn.delete(dyn.row_ids[:40])
        refreshed = trainer.step()
        assert refreshed is not None

        after = server.predict("scores", row, key="u1")
        assert after != before
        # The served value equals the compiled-scorer output of a full
        # snapshot retrain — the hot-swapped model is not approximately
        # fresh, it is bitwise the retrained model.
        snap = dyn.snapshot()
        fit = LinearRegression(solver="normal", l2=0.25, fit_intercept=False)
        fit.fit(snap.to_matrix(FEATURES), snap.column("label"))
        expected = compile_linear_scorer(fit, "margin")(row[None, :])[0]
        assert after == expected

    def test_promotion_eagerly_invalidates_prediction_cache(self):
        dyn, _, _, trainer, server = self.build()
        row = dyn.to_matrix(FEATURES)[0]
        server.predict("scores", row, key="u1")
        invalidations = server.endpoint("scores").cache.stats.invalidations
        dyn.insert(grid_table(10, seed=8))
        trainer.step()
        assert (
            server.endpoint("scores").cache.stats.invalidations > invalidations
        )

    def test_refreshes_chain_lineage_through_registry(self):
        dyn, _, registry, trainer, _ = self.build()
        for i in range(3):
            dyn.insert(grid_table(5, seed=20 + i))
            trainer.step()
        versions = registry.versions(trainer.model_name)
        assert [v.version for v in versions] == [1, 2, 3, 4]
        assert [v.parent_version for v in versions] == [None, 1, 2, 3]
        assert registry.resolve(trainer.model_name, "prod").version == 4

    def test_refresh_every_batches_refreshes(self):
        dyn, _, _, trainer, _ = self.build()
        trainer.refresh_every = 3
        trainer.last_refresh_version = trainer.maintainer.applied_version
        refreshes = trainer.refreshes
        dyn.insert(grid_table(2, seed=30))
        assert trainer.step() is None
        dyn.insert(grid_table(2, seed=31))
        dyn.insert(grid_table(2, seed=32))
        assert trainer.step() is not None
        assert trainer.refreshes == refreshes + 1


# ----------------------------------------------------------------------
# Hypothesis: any interleaving of mutations preserves bitwise parity.
# ----------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(1, 8),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=12,
)
#: the same schedule with transport faults mixed in: "lose" drops the
#: step's delta in transit (two more inserts reveal the gap and arrive
#: stale), "corrupt" hands the step's delta over with flipped bytes
faulty_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "lose", "corrupt"]),
        st.integers(1, 8),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=12,
)


def keyed_table(size, seed, entities):
    """Grid rows plus the entity key a feature view serves by."""
    return grid_table(size, seed).with_column("entity", np.asarray(entities))


def accounted(stats):
    return (
        stats.deltas_applied + stats.injected_faults + stats.corrupt_deltas
        + stats.dropped_deltas + stats.skipped_stale
    )


class TestInterleavingProperty:
    """One schedule, both consumers: the gram/cofactor aggregates and a
    view's feature rows fold the same deltas off one table through the
    one ``DeltaConsumer.parity``."""

    @given(schedule=faulty_ops, base_seed=st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_is_bitwise_exact(self, schedule, base_seed):
        dyn = DynamicTable.from_table(
            keyed_table(60, base_seed, np.arange(60)), name="events"
        )
        view = FeatureView("events", "entity", {
            "cross": lambda c: c.f0 * c.f1,
            "shifted": lambda c: c.f2 + 1.0,
        })
        consumers = [
            IncrementalMaintainer(dyn, dyn.subscribe(), FEATURES, "label"),
            FeatureViewMaintainer(view, dyn, dyn.subscribe()),
        ]
        next_entity, lost = 60, 0
        for kind, size, seed in schedule:
            rng = np.random.default_rng(seed)
            if kind in ("delete", "update") and dyn.num_rows > size:
                picks = rng.choice(dyn.row_ids, size=size, replace=False)
                if kind == "delete":
                    dyn.delete(picks)
                else:  # an update keeps each row's entity
                    at = np.searchsorted(dyn.row_ids, picks)
                    dyn.update(picks, keyed_table(
                        size, seed + 1, dyn.column("entity")[at]
                    ))
            else:
                for burst in range(3 if kind == "lose" else 1):
                    fresh = np.arange(next_entity, next_entity + size)
                    dyn.insert(keyed_table(size, seed + burst, fresh))
                    next_entity += size
            for consumer in consumers:
                if kind == "lose":
                    consumer.stream.drop_next()
                elif kind == "corrupt":
                    consumer.apply(consumer.stream.poll().corrupted())
                consumer.drain()
            lost += kind == "lose"
            for consumer in consumers:
                assert consumer.parity()
                # every delta that reached the consumer is in one bucket
                assert accounted(consumer.stats) == (
                    consumer.stream.published - lost
                )
        model, refresher = consumers
        faults = sum(kind in ("lose", "corrupt") for kind, _, _ in schedule)
        for stats in (model.stats, refresher.stats):
            assert stats.recomputes == faults
            assert stats.dropped_deltas == stats.skipped_stale == lost
        assert len(refresher.rows) == dyn.num_rows


def rows_by_id(dyn):
    """The table as the dumbest possible structure: row id -> row tuple."""
    return dict(zip(dyn.row_ids.tolist(), dyn.rows()))


class TestDynamicTableOracle:
    """Position lookup by binary search over ascending ``row_ids`` must
    behave exactly like a dict of rows keyed by id."""

    @given(schedule=ops, base_seed=st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_mutations_match_dict_of_rows(self, schedule, base_seed):
        dyn = DynamicTable.from_table(grid_table(12, seed=base_seed))
        oracle = rows_by_id(dyn)
        next_id = dyn.num_rows
        handed_out = []  # (arrays given out earlier, their bytes then)
        for kind, size, seed in schedule:
            arrays = [dyn.row_ids, *dyn.columns().values(),
                      *dyn.snapshot().columns().values()]
            handed_out.append((arrays, [a.tobytes() for a in arrays]))
            if kind != "insert" and dyn.num_rows <= size:
                continue
            rng = np.random.default_rng(seed)
            fresh = grid_table(size, seed=seed)
            if kind == "insert":
                delta = dyn.insert(fresh)
                assert delta.row_ids == tuple(range(next_id, next_id + size))
                oracle.update(zip(delta.row_ids, fresh.rows()))
                next_id += size
            else:
                # unsorted picks: a delta keeps the caller's id order
                picks = rng.choice(dyn.row_ids, size=size, replace=False)
                if kind == "delete":
                    delta = dyn.delete(picks)
                    removed = [oracle.pop(i) for i in delta.row_ids]
                else:
                    delta = dyn.update(picks, fresh)
                    removed = [oracle[i] for i in delta.row_ids]
                    oracle.update(zip(delta.row_ids, fresh.rows()))
                assert delta.row_ids == tuple(picks.tolist())
                assert list(delta.old_rows.rows()) == removed
            assert delta.verify()
            assert np.all(np.diff(dyn.row_ids) > 0)
            assert rows_by_id(dyn) == oracle
            # rejected mutations leave no trace
            version, some_id = dyn.version, int(dyn.row_ids[seed % dyn.num_rows])
            two = grid_table(2, seed=seed + 1)
            for bad in ([next_id], [-1], [some_id, next_id + 3]):
                with pytest.raises(IncrementalError, match="not present"):
                    dyn.delete(bad)
            with pytest.raises(IncrementalError, match="not present"):
                dyn.update([next_id, some_id], two)
            with pytest.raises(IncrementalError, match=f"id {some_id} repeated"):
                dyn.delete([some_id, some_id])
            with pytest.raises(IncrementalError, match=f"id {some_id} repeated"):
                dyn.update([some_id, some_id], two)
            assert dyn.version == version and rows_by_id(dyn) == oracle
        for arrays, before in handed_out:
            assert [a.tobytes() for a in arrays] == before
