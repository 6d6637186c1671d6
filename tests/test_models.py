"""Unit tests for the ML estimators in repro.ml."""

import numpy as np
import pytest

from repro.data import make_blobs, make_categorical, make_classification
from repro.errors import ModelError, NotFittedError
from repro.ml import (
    CategoricalNB,
    KMeans,
    LinearRegression,
    LogisticRegression,
)


class TestLinearRegression:
    @pytest.mark.parametrize("solver", ["normal", "qr"])
    def test_recovers_weights(self, solver, regression_data):
        X, y, w_true = regression_data
        model = LinearRegression(solver=solver).fit(X, y)
        assert np.allclose(model.coef_, w_true, atol=0.05)
        assert abs(model.intercept_) < 0.05
        assert model.score(X, y) > 0.99

    def test_solvers_agree(self, regression_data):
        X, y, _ = regression_data
        normal = LinearRegression(solver="normal").fit(X, y)
        qr = LinearRegression(solver="qr").fit(X, y)
        assert np.allclose(normal.coef_, qr.coef_, atol=1e-8)

    def test_unknown_solver(self, regression_data):
        X, y, _ = regression_data
        with pytest.raises(ModelError):
            LinearRegression(solver="cholesky").fit(X, y)

    def test_no_intercept(self, regression_data):
        X, y, _ = regression_data
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0

    def test_intercept_learned(self, rng):
        X = rng.standard_normal((100, 2))
        y = X @ np.array([1.0, 2.0]) + 7.0
        model = LinearRegression().fit(X, y)
        assert model.intercept_ == pytest.approx(7.0, abs=1e-8)

    def test_ridge_shrinks_but_not_intercept(self, rng):
        X = rng.standard_normal((100, 3))
        y = X @ np.array([5.0, -5.0, 5.0]) + 10.0
        ols = LinearRegression().fit(X, y)
        ridge = LinearRegression(l2=100.0).fit(X, y)
        assert np.linalg.norm(ridge.coef_) < np.linalg.norm(ols.coef_)
        # Intercept is unpenalized: should still be near 10.
        assert ridge.intercept_ == pytest.approx(10.0, abs=1.0)

    @pytest.mark.parametrize("solver", ["normal", "qr"])
    def test_ridge_solvers_agree(self, solver, regression_data):
        X, y, _ = regression_data
        a = LinearRegression(l2=3.0, solver="normal").fit(X, y)
        b = LinearRegression(l2=3.0, solver=solver).fit(X, y)
        assert np.allclose(a.coef_, b.coef_, atol=1e-6)

    def test_rank_deficient_falls_back(self, rng):
        X = rng.standard_normal((50, 3))
        X = np.hstack([X, X[:, :1]])  # duplicated column
        y = X @ np.ones(4)
        model = LinearRegression().fit(X, y)
        assert model.score(X, y) > 0.999

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.ones((2, 2)))

    def test_empty_data_rejected(self):
        with pytest.raises(ModelError):
            LinearRegression().fit(np.empty((0, 2)), np.empty(0))

    def test_nan_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(ModelError):
            LinearRegression().fit(X, np.array([1.0, 2.0]))


class TestLogisticRegression:
    def test_separable_accuracy(self, classification_data):
        X, y = classification_data
        model = LogisticRegression(max_iter=100).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_predict_proba_bounds_and_order(self, classification_data):
        X, y = classification_data
        model = LogisticRegression().fit(X, y)
        p = model.predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))
        assert (p[y == 1].mean()) > (p[y == 0].mean())

    def test_arbitrary_label_values(self, classification_data):
        X, y = classification_data
        labels = np.where(y == 1, "spam", "ham")
        model = LogisticRegression().fit(X, labels)
        assert set(model.predict(X)) <= {"spam", "ham"}
        assert model.score(X, labels) > 0.9

    def test_multiclass_rejected(self, rng):
        X = rng.standard_normal((30, 2))
        y = np.arange(30) % 3
        with pytest.raises(ModelError, match="2 classes"):
            LogisticRegression().fit(X, y)

    def test_warm_start_reuses_weights(self, classification_data):
        X, y = classification_data
        model = LogisticRegression(
            l2=0.1, warm_start=True, max_iter=500, tol=1e-9
        )
        model.fit(X, y)
        first_iters = model.optim_result_.iterations
        model.fit(X, y)  # same data: should converge almost instantly
        assert model.optim_result_.iterations <= max(2, first_iters // 4)

    def test_warm_start_survives_dim_change(self, classification_data):
        X, y = classification_data
        model = LogisticRegression(warm_start=True).fit(X, y)
        model.fit(X[:, :3], y)  # fewer features: silently cold-starts
        assert len(model.coef_) == 3


class TestKMeans:
    def test_recovers_blobs(self):
        X, labels = make_blobs(300, 2, centers=3, cluster_std=0.3, seed=5)
        model = KMeans(n_clusters=3, seed=5).fit(X)
        # Every true cluster should map to exactly one predicted cluster.
        mapping = {}
        for true, pred in zip(labels, model.labels_):
            mapping.setdefault(true, pred)
        agreement = np.mean(
            [mapping[t] == p for t, p in zip(labels, model.labels_)]
        )
        assert agreement > 0.95

    def test_inertia_decreases_with_k(self):
        X, _ = make_blobs(200, 2, centers=4, seed=6)
        inertias = [
            KMeans(n_clusters=k, seed=6).fit(X).inertia_ for k in (1, 2, 4)
        ]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_predict_consistent_with_labels(self):
        X, _ = make_blobs(150, 3, centers=3, seed=7)
        model = KMeans(n_clusters=3, seed=7).fit(X)
        assert np.array_equal(model.predict(X), model.labels_)

    def test_transform_shape_and_nonneg(self):
        X, _ = make_blobs(100, 2, centers=3, seed=8)
        model = KMeans(n_clusters=3, seed=8).fit(X)
        D = model.transform(X)
        assert D.shape == (100, 3)
        assert np.all(D >= 0)

    def test_random_init(self):
        X, _ = make_blobs(100, 2, centers=2, seed=9)
        model = KMeans(n_clusters=2, init="random", seed=9).fit(X)
        assert model.inertia_ > 0

    def test_too_few_points_rejected(self):
        with pytest.raises(ModelError):
            KMeans(n_clusters=5).fit(np.ones((3, 2)))

    def test_unknown_init_rejected(self):
        with pytest.raises(ModelError):
            KMeans(n_clusters=2, init="fancy").fit(np.random.rand(10, 2))

    def test_duplicate_points_do_not_crash(self):
        X = np.ones((20, 2))
        model = KMeans(n_clusters=2, seed=0).fit(X)
        assert model.inertia_ == pytest.approx(0.0)


class TestNaiveBayes:
    def test_categorical_learns_signal(self):
        X, y = make_categorical(400, 4, signal=3.0, seed=3)
        assert CategoricalNB().fit(X, y).score(X, y) > 0.75

    def test_categorical_unknown_value_smoothed(self):
        X = np.array([["a"], ["a"], ["b"], ["b"]], dtype=object)
        y = np.array([0, 0, 1, 1])
        model = CategoricalNB().fit(X, y)
        p = model.predict_proba(np.array([["zzz"]], dtype=object))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_categorical_alpha_validation(self):
        X = np.array([["a"], ["b"]], dtype=object)
        with pytest.raises(ModelError):
            CategoricalNB(alpha=0.0).fit(X, np.array([0, 1]))

    def test_categorical_shape_mismatch_at_predict(self):
        X = np.array([["a", "b"]], dtype=object)
        model = CategoricalNB().fit(
            np.array([["a", "b"], ["c", "d"]], dtype=object), np.array([0, 1])
        )
        with pytest.raises(ModelError):
            model.predict(np.array([["a"]], dtype=object))
