"""Unit tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.data import (
    make_blobs,
    make_categorical,
    make_classification,
    make_low_cardinality_matrix,
    make_multi_star_schema,
    make_regression,
    make_run_matrix,
    make_sparse_matrix,
    make_star_schema,
)
from repro.errors import ReproError


class TestBasicTasks:
    def test_regression_shapes_and_signal(self):
        X, y, w = make_regression(100, 7, noise=0.0, seed=1)
        assert X.shape == (100, 7)
        assert np.allclose(X @ w, y)

    def test_regression_noise_added(self):
        X, y, w = make_regression(100, 3, noise=1.0, seed=2)
        assert not np.allclose(X @ w, y)

    def test_classification_balanced(self):
        _, y = make_classification(101, 4, seed=3)
        assert abs(int(np.sum(y == 1)) - 50) <= 1

    def test_classification_separation_controls_difficulty(self):
        from repro.ml import LogisticRegression

        X_easy, y_easy = make_classification(400, 5, separation=5.0, seed=4)
        X_hard, y_hard = make_classification(400, 5, separation=0.5, seed=4)
        easy = LogisticRegression().fit(X_easy, y_easy).score(X_easy, y_easy)
        hard = LogisticRegression().fit(X_hard, y_hard).score(X_hard, y_hard)
        assert easy > hard

    def test_blobs_labels_in_range(self):
        X, labels = make_blobs(50, 2, centers=4, seed=5)
        assert X.shape == (50, 2)
        assert set(labels.tolist()) <= set(range(4))

    def test_size_validation(self):
        with pytest.raises(ReproError):
            make_regression(0, 3)
        with pytest.raises(ReproError):
            make_blobs(10, 2, centers=0)

    def test_determinism(self):
        a = make_regression(50, 3, seed=7)
        b = make_regression(50, 3, seed=7)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestCompressionMatrices:
    def test_low_cardinality_distinct_count(self):
        X = make_low_cardinality_matrix(1000, 3, cardinality=5, seed=1)
        for j in range(3):
            assert len(np.unique(X[:, j])) <= 5

    def test_run_matrix_has_long_runs(self):
        from repro.compression import count_runs

        X = make_run_matrix(2000, 2, mean_run_length=100, seed=2)
        assert count_runs(X[:, 0]) < 2000 / 20

    def test_sparse_density(self):
        X = make_sparse_matrix(5000, 4, density=0.05, seed=3)
        observed = np.count_nonzero(X) / X.size
        assert observed == pytest.approx(0.05, rel=0.3)

    def test_density_bounds(self):
        with pytest.raises(ReproError):
            make_sparse_matrix(10, 2, density=1.5)


class TestStarSchemas:
    def test_ratios(self):
        star = make_star_schema(n_s=1000, n_r=50, d_s=4, d_r=12, seed=1)
        assert star.tuple_ratio == 20.0
        assert star.feature_ratio == 3.0

    def test_materialize_shape(self):
        star = make_star_schema(n_s=100, n_r=10, d_s=2, d_r=3, seed=2)
        assert star.materialize().shape == (100, 5)

    def test_fk_in_range(self):
        star = make_star_schema(n_s=500, n_r=20, seed=3)
        assert star.fk.min() >= 0
        assert star.fk.max() < 20

    def test_classification_labels(self):
        star = make_star_schema(200, 10, task="classification", seed=4)
        assert set(np.unique(star.y).tolist()) <= {0, 1}

    def test_fk_importance_zero_removes_r_signal(self):
        star = make_star_schema(
            2000, 20, d_s=3, d_r=6, fk_importance=0.0, noise=0.01, seed=5
        )
        from repro.ml import LinearRegression

        s_only = LinearRegression().fit(star.S, star.y).score(star.S, star.y)
        assert s_only > 0.95  # S features carry all the signal

    def test_unknown_task(self):
        with pytest.raises(ReproError):
            make_star_schema(10, 5, task="ranking")

    def test_multi_star_schema(self):
        S, fks, Rs, y, d_s = make_multi_star_schema(300, [(20, 4), (30, 2)], seed=6)
        assert S.shape == (300, d_s)
        assert len(fks) == len(Rs) == 2
        assert fks[0].max() < 20
        assert Rs[1].shape == (30, 2)
        assert y.shape == (300,)


class TestCategorical:
    def test_shapes_and_dtype(self):
        X, y = make_categorical(100, 3, cardinality=4, seed=1)
        assert X.shape == (100, 3)
        assert X.dtype == object
        assert all(str(v).startswith("v") for v in X.ravel())

    def test_signal_strength_controls_learnability(self):
        from repro.ml import CategoricalNB

        X_strong, y_strong = make_categorical(500, 4, signal=5.0, seed=2)
        X_weak, y_weak = make_categorical(500, 4, signal=0.0, seed=2)
        strong = CategoricalNB().fit(X_strong, y_strong).score(X_strong, y_strong)
        weak = CategoricalNB().fit(X_weak, y_weak).score(X_weak, y_weak)
        assert strong > weak
