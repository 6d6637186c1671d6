"""Unit tests for feature-engineering management (Columbus, pipelines)."""

import numpy as np
import pytest

from repro.data import make_regression
from repro.errors import ModelError, NotFittedError, SelectionError
from repro.feateng import (
    FeatureSubsetExplorer,
    Pipeline,
    solve_subset_naive,
)
from repro.ml import LinearRegression, LogisticRegression, StandardScaler


@pytest.fixture
def reg_data():
    return make_regression(500, 8, noise=0.2, seed=41)


class TestFeatureSubsetExplorer:
    def test_matches_naive_solution(self, reg_data):
        X, y, _ = reg_data
        explorer = FeatureSubsetExplorer(X, y)
        for subset in ([0], [1, 3], [0, 2, 4, 6], list(range(8))):
            fast = explorer.solve_subset(subset)
            slow = solve_subset_naive(X, y, subset)
            assert np.allclose(fast.coef, slow.coef, atol=1e-8)
            assert fast.r_squared == pytest.approx(slow.r_squared, abs=1e-8)

    def test_full_subset_near_perfect(self, reg_data):
        X, y, _ = reg_data
        fit = FeatureSubsetExplorer(X, y).solve_subset(range(8))
        assert fit.r_squared > 0.95

    def test_r_squared_monotone_in_nesting(self, reg_data):
        X, y, _ = reg_data
        explorer = FeatureSubsetExplorer(X, y)
        r2 = [
            explorer.solve_subset(range(k + 1)).r_squared for k in range(8)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(r2, r2[1:]))

    def test_duplicate_columns_deduped(self, reg_data):
        X, y, _ = reg_data
        explorer = FeatureSubsetExplorer(X, y)
        assert explorer.solve_subset([0, 0, 1]).columns == (0, 1)

    def test_ridge_variant(self, reg_data):
        X, y, _ = reg_data
        plain = FeatureSubsetExplorer(X, y).solve_subset([0, 1])
        ridged = FeatureSubsetExplorer(X, y, l2=50.0).solve_subset([0, 1])
        assert np.linalg.norm(ridged.coef) < np.linalg.norm(plain.coef)

    def test_validation(self, reg_data):
        X, y, _ = reg_data
        explorer = FeatureSubsetExplorer(X, y)
        with pytest.raises(SelectionError):
            explorer.solve_subset([])
        with pytest.raises(SelectionError):
            explorer.solve_subset([99])
        with pytest.raises(SelectionError):
            FeatureSubsetExplorer(X, y[:10])

    def test_forward_selection_improves_each_step(self, reg_data):
        X, y, _ = reg_data
        trail = FeatureSubsetExplorer(X, y).forward_selection(max_features=5)
        r2s = [f.r_squared for f in trail]
        assert len(trail) == 5
        assert all(b > a for a, b in zip(r2s, r2s[1:]))
        # Subsets are nested.
        for prev, cur in zip(trail, trail[1:]):
            assert set(prev.columns) < set(cur.columns)

    def test_forward_selection_stops_on_no_gain(self, rng):
        # Only 1 informative feature: selection should stop early.
        X = rng.standard_normal((300, 5))
        y = X[:, 2] * 3.0
        trail = FeatureSubsetExplorer(X, y).forward_selection(min_gain=1e-4)
        assert len(trail) == 1
        assert trail[0].columns == (2,)


class TestPipeline:
    def test_transform_only_pipeline(self, reg_data):
        X, _, _ = reg_data
        pipe = Pipeline(
            [("center", StandardScaler(with_std=False)),
             ("scale", StandardScaler(with_mean=False))]
        )
        Z = pipe.fit_transform(X)
        assert Z.shape == X.shape
        assert np.allclose(Z, StandardScaler().fit_transform(X))

    def test_estimator_pipeline_predicts(self, reg_data):
        X, y, _ = reg_data
        pipe = Pipeline(
            [("scale", StandardScaler()), ("model", LinearRegression())]
        )
        pipe.fit(X, y)
        assert pipe.score(X, y) > 0.9
        assert pipe.predict(X).shape == (500,)

    def test_provenance_records_every_step(self, reg_data):
        X, y, _ = reg_data
        pipe = Pipeline(
            [("scale", StandardScaler()), ("model", LinearRegression())]
        ).fit(X, y)
        records = pipe.provenance_.records
        assert [r.step for r in records] == ["scale", "model"]
        assert records[0].input_shape == (500, 8)
        assert records[0].output_shape == (500, 8)
        assert "StandardScaler" in pipe.provenance_.describe()

    def test_transform_steps_applied_at_predict(self, reg_data):
        X, y, _ = reg_data
        pipe = Pipeline(
            [("scale", StandardScaler()), ("model", LinearRegression())]
        ).fit(X, y)
        # Shifted inputs must be scaled with *training* statistics.
        shifted = X + 100.0
        direct = LinearRegression().fit(StandardScaler().fit_transform(X), y)
        assert not np.allclose(pipe.predict(shifted), pipe.predict(X))

    def test_fit_transform_rejected_with_estimator(self, reg_data):
        X, y, _ = reg_data
        pipe = Pipeline([("model", LogisticRegression())])
        with pytest.raises(ModelError):
            pipe.fit_transform(X, y)

    def test_predict_requires_estimator(self, reg_data):
        X, y, _ = reg_data
        pipe = Pipeline([("scale", StandardScaler())]).fit(X)
        with pytest.raises(ModelError):
            pipe.predict(X)

    def test_unfitted_raises(self, reg_data):
        X, _, _ = reg_data
        with pytest.raises(NotFittedError):
            Pipeline([("scale", StandardScaler())]).transform(X)

    def test_duplicate_step_names_rejected(self):
        with pytest.raises(ModelError):
            Pipeline([("a", StandardScaler()), ("a", StandardScaler())])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ModelError):
            Pipeline([])

    def test_clone_unfitted(self, reg_data):
        X, y, _ = reg_data
        pipe = Pipeline(
            [("scale", StandardScaler()), ("model", LinearRegression(l2=0.5))]
        ).fit(X, y)
        clone = pipe.clone()
        assert not hasattr(clone, "provenance_")
        assert clone.steps[1][1].l2 == 0.5


class TestProvenanceSnapshot:
    """ProvenanceRecord.params must be a snapshot, not an alias."""

    def test_later_param_mutation_cannot_rewrite_lineage(self, reg_data):
        X, y, _ = reg_data

        class Tagged(StandardScaler):
            def __init__(self, config=None):
                super().__init__()
                self.config = config if config is not None else {}

            def get_params(self):
                return {"config": self.config}

        config = {"window": 3, "nested": {"alpha": 0.5}}
        step = Tagged(config)
        pipe = Pipeline([("tagged", step)]).fit(X)
        recorded = pipe.provenance_.records[0].params
        assert recorded == {"config": {"window": 3, "nested": {"alpha": 0.5}}}
        config["window"] = 999
        config["nested"]["alpha"] = -1.0
        assert recorded["config"]["window"] == 3
        assert recorded["config"]["nested"]["alpha"] == 0.5


class TestStreamingDrift:
    def _reference(self, n=2000, seed=5):
        return np.random.default_rng(seed).normal(0.0, 1.0, n)

    def test_frozen_edges_are_deterministic_content(self):
        from repro.feateng import frozen_edges

        ref = self._reference()
        assert np.array_equal(frozen_edges(ref), frozen_edges(ref.copy()))
        assert len(frozen_edges(ref)) == 21  # the module's 20 buckets

    def test_bucket_counts_clip_out_of_range(self):
        from repro.feateng import bucket_counts, frozen_edges

        edges = frozen_edges(np.linspace(0.0, 1.0, 100))
        counts = bucket_counts([-50.0, 0.5, 50.0], edges)
        assert counts[0] >= 1 and counts[-1] >= 1
        assert counts.sum() == 3

    def test_count_matrices_are_rows_of_the_one_row_case(self):
        from repro.feateng import (bucket_counts, frozen_edges, ks_statistic,
                                   psi_statistic, tv_statistic)

        rng = np.random.default_rng(3)
        values = rng.normal(0.0, 2.0, (3, 50))
        values[0, :5] = [np.nan, np.inf, -np.inf, 99.0, -99.0]
        edges = np.stack([frozen_edges(self._reference(seed=s)) for s in (1, 2, 3)])
        counts = bucket_counts(values, edges)
        ref = np.stack([bucket_counts(self._reference(seed=s), e)
                        for s, e in zip((1, 2, 3), edges)])
        ref[2] = 0.0  # an empty side: KS and TV read 0
        for j in range(3):
            assert counts[j].tobytes() == bucket_counts(values[j], edges[j]).tobytes()
            for stat in (psi_statistic, ks_statistic, tv_statistic):
                assert stat(ref, counts)[j] == stat(ref[j], counts[j])
        assert ks_statistic(ref, counts)[2] == tv_statistic(ref, counts)[2] == 0.0

    def _gate(self, ref):
        """The streaming path: a drift gate over a one-feature view."""
        from repro.features import DriftGate, FeatureView

        view = FeatureView("stream", "entity", {"x": lambda c: c.x})
        return DriftGate(view, {"x": ref})

    def test_identical_stream_has_near_zero_psi(self):
        ref = self._reference()
        gate = self._gate(ref)
        gate.observe_many(ref[:, None])
        stats = gate.drift_snapshot()["x"]
        assert stats.psi < 1e-9
        assert stats.ks < 1e-12
        assert not stats.drifted

    def test_shifted_stream_trips_psi_and_ks(self):
        from repro.feateng.drift import (KS_DEFAULT_THRESHOLD,
                                         PSI_DEFAULT_THRESHOLD)

        ref = self._reference()
        gate = self._gate(ref)
        gate.observe_many((ref + 2.5)[:, None])
        stats = gate.drift_snapshot()["x"]
        assert stats.psi > PSI_DEFAULT_THRESHOLD
        assert stats.ks > KS_DEFAULT_THRESHOLD
        assert stats.drifted

    def test_incremental_equals_batch_accumulation(self):
        ref = self._reference()
        serve = self._reference(seed=6) + 0.3
        one = self._gate(ref)
        for v in serve:
            one.observe_many([v])
        batch = self._gate(ref)
        batch.observe_many(serve[:, None])
        assert repr(one.drift_snapshot()) == repr(batch.drift_snapshot())
        assert np.array_equal(one.served_counts, batch.served_counts)

    def test_batch_report_carries_psi_and_ks(self):
        from repro.feateng import detect_drift
        from repro.storage.table import Table

        rng = np.random.default_rng(0)
        train = Table.from_columns({"x": rng.normal(0, 1, 500)})
        serve = Table.from_columns({"x": rng.normal(3, 1, 500)})
        report = detect_drift(train, serve)
        col = report.columns[0]
        assert col.drifted
        assert col.psi > 0.25
        assert col.ks > 0.25

    def test_psi_replayable_from_counts(self):
        from repro.feateng import bucket_counts, psi_statistic

        ref = self._reference()
        serve = self._reference(seed=9) * 1.7
        gate = self._gate(ref)
        gate.observe_many(serve[:, None])
        edges = gate.edges[0]
        oracle = psi_statistic(
            bucket_counts(ref, edges), bucket_counts(serve, edges)
        )
        assert gate.drift_snapshot()["x"].psi == oracle
