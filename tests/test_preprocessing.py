"""Unit tests for repro.ml.preprocessing."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml import StandardScaler, train_test_split


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.standard_normal((100, 3)) * 5 + 2
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_passthrough(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)  # centered but not divided by 0
        assert np.isfinite(Z).all()

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_with_mean_false(self, rng):
        X = rng.standard_normal((50, 2)) + 10
        Z = StandardScaler(with_mean=False).fit_transform(X)
        assert Z.mean() > 1.0  # not centered

    def test_uses_train_statistics_on_new_data(self, rng):
        X = rng.standard_normal((50, 2))
        scaler = StandardScaler().fit(X)
        Z = scaler.transform(X + 100.0)
        assert Z.mean() > 50  # shifted data stays shifted


class TestHelpers:
    def test_split_sizes(self, rng):
        X = rng.standard_normal((100, 2))
        y = np.arange(100)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_fraction=0.2, seed=1)
        assert len(X_te) == 20
        assert len(X_tr) == 80
        assert set(y_tr.tolist()) | set(y_te.tolist()) == set(range(100))
        assert not set(y_tr.tolist()) & set(y_te.tolist())

    def test_split_deterministic(self, rng):
        X = rng.standard_normal((50, 2))
        y = np.arange(50)
        a = train_test_split(X, y, seed=3)
        b = train_test_split(X, y, seed=3)
        assert np.array_equal(a[1], b[1])

    def test_split_fraction_validation(self, rng):
        X, y = rng.standard_normal((10, 1)), np.arange(10)
        with pytest.raises(ModelError):
            train_test_split(X, y, test_fraction=0.0)
        with pytest.raises(ModelError):
            train_test_split(X, y, test_fraction=1.5)

    def test_split_length_mismatch(self, rng):
        with pytest.raises(ModelError):
            train_test_split(rng.standard_normal((5, 1)), np.arange(6))
