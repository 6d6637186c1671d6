"""Unit tests for the DSL-authored algorithm scripts."""

import numpy as np
import pytest

from repro.algorithms import (
    kmeans_dsl,
    linreg_cg,
    linreg_direct,
    logreg_gd,
    pca_dsl,
)
from repro.data import make_blobs, make_classification, make_regression
from repro.errors import ModelError
from repro.ml import KMeans, LinearRegression, LogisticRegression


class TestLinregDirect:
    def test_matches_library(self, regression_data):
        X, y, _ = regression_data
        result = linreg_direct(X, y)
        reference = LinearRegression(fit_intercept=False).fit(X, y)
        assert np.allclose(result.weights, reference.coef_, atol=1e-8)
        assert result.converged

    def test_ridge_variant(self, regression_data):
        X, y, _ = regression_data
        plain = linreg_direct(X, y)
        ridged = linreg_direct(X, y, l2=100.0)
        assert np.linalg.norm(ridged.weights) < np.linalg.norm(plain.weights)

    def test_flops_accounted(self, regression_data):
        X, y, _ = regression_data
        result = linreg_direct(X, y)
        assert result.flops_executed > 0


class TestLinregCG:
    def test_matches_direct_solve(self, regression_data):
        X, y, _ = regression_data
        cg = linreg_cg(X, y, tol=1e-12)
        direct = linreg_direct(X, y)
        assert np.allclose(cg.weights, direct.weights, atol=1e-6)
        assert cg.converged

    def test_converges_within_d_iterations(self, regression_data):
        X, y, _ = regression_data
        result = linreg_cg(X, y, tol=1e-10)
        assert result.iterations <= X.shape[1]

    def test_residual_history_decreases(self, regression_data):
        X, y, _ = regression_data
        result = linreg_cg(X, y, tol=1e-12)
        history = np.asarray(result.objective_history)
        assert history[-1] < history[0] * 1e-6

    def test_regularized_cg(self, regression_data):
        X, y, _ = regression_data
        cg = linreg_cg(X, y, l2=5.0, tol=1e-12)
        gram = X.T @ X + 5.0 * np.eye(X.shape[1])
        reference = np.linalg.solve(gram, X.T @ y)
        assert np.allclose(cg.weights, reference, atol=1e-6)

    def test_cg_cheaper_than_gram_for_wide_n(self):
        X, y, _ = make_regression(5000, 40, seed=1)
        cg = linreg_cg(X, y, tol=1e-10)
        direct = linreg_direct(X, y)
        # CG with few iterations does fewer FLOPs than forming X'X.
        assert cg.flops_executed < 2 * direct.flops_executed


class TestLogregGD:
    def test_accuracy(self, classification_data):
        X, y = classification_data
        result = logreg_gd(X, y.astype(float), l2=1e-3, max_iter=150)
        predictions = (X @ result.weights > 0).astype(int)
        assert np.mean(predictions == y) > 0.9

    def test_matches_library_direction(self, classification_data):
        X, y = classification_data
        dsl = logreg_gd(X, y.astype(float), l2=0.1, max_iter=300)
        library = LogisticRegression(
            l2=0.1, fit_intercept=False, max_iter=300
        ).fit(X, y)
        cosine = dsl.weights @ library.coef_ / (
            np.linalg.norm(dsl.weights) * np.linalg.norm(library.coef_)
        )
        assert cosine > 0.999

    def test_objective_monotone(self, classification_data):
        X, y = classification_data
        result = logreg_gd(X, y.astype(float), max_iter=50)
        diffs = np.diff(result.objective_history)
        assert np.all(diffs <= 1e-12)

    def test_label_validation(self, classification_data):
        X, y = classification_data
        with pytest.raises(ModelError, match="labels in"):
            logreg_gd(X, np.where(y == 1, 1.0, -1.0))


class TestKMeansDSL:
    def test_matches_library_quality(self):
        X, _ = make_blobs(400, 3, centers=4, cluster_std=0.4, seed=9)
        dsl = kmeans_dsl(X, 4, seed=9)
        library = KMeans(4, n_init=1, init="random", seed=9).fit(X)
        # Same data, same k: inertias should be comparable.
        assert dsl.inertia <= library.inertia_ * 1.5

    def test_inertia_history_non_increasing(self):
        X, _ = make_blobs(300, 2, centers=3, seed=10)
        result = kmeans_dsl(X, 3, seed=10)
        history = np.asarray(result.inertia_history)
        assert np.all(np.diff(history) <= 1e-6)

    def test_labels_shape_and_range(self):
        X, _ = make_blobs(120, 2, centers=3, seed=11)
        result = kmeans_dsl(X, 3, seed=11)
        assert result.labels.shape == (120,)
        assert set(result.labels.tolist()) <= {0, 1, 2}

    def test_k_validation(self):
        with pytest.raises(ModelError):
            kmeans_dsl(np.ones((5, 2)), 10)


class TestHoistedRowNorms:
    def test_kmeans_fit_keeps_the_bits_of_per_call_norms(self, monkeypatch):
        # KMeans computes the rows' squared norms once per fit, seeding
        # included; the oracle recomputes them on every distance call.
        import repro.ml.kmeans as km

        X, _ = make_blobs(500, 24, centers=4, cluster_std=2.0, seed=12)
        X = X * np.linspace(0.1, 30.0, 24)  # norms that round unevenly

        def fit():
            return KMeans(4, n_init=2, max_iter=20, seed=3).fit(X)

        hoisted = fit()
        real = km._sq_distances
        monkeypatch.setattr(
            km, "_sq_distances", lambda X, centers, x_sq=None: real(X, centers)
        )
        recomputed = fit()
        assert np.array_equal(hoisted.cluster_centers_, recomputed.cluster_centers_)
        assert np.array_equal(hoisted.labels_, recomputed.labels_)
        assert hoisted.inertia_ == recomputed.inertia_


class TestPCADSL:
    def test_matches_library(self, rng):
        X = rng.standard_normal((200, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
        dsl = pca_dsl(X, 3)
        _, s, vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
        assert np.allclose(np.abs(dsl.components), np.abs(vt[:3]), atol=1e-8)
        assert np.allclose(
            dsl.explained_variance, s[:3] ** 2 / (len(X) - 1), atol=1e-8
        )

    def test_ratios_sum_below_one(self, rng):
        X = rng.standard_normal((100, 5))
        result = pca_dsl(X, 2)
        assert 0 < result.explained_variance_ratio.sum() <= 1.0 + 1e-12

    def test_component_validation(self, rng):
        with pytest.raises(ModelError):
            pca_dsl(rng.standard_normal((10, 3)), 7)

    def test_mean_recorded(self, rng):
        X = rng.standard_normal((50, 4)) + 10.0
        result = pca_dsl(X, 2)
        assert np.allclose(result.mean, X.mean(axis=0))
