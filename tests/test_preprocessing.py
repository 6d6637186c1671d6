"""Unit tests for repro.ml.preprocessing."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml import (
    KBinsDiscretizer,
    MinMaxScaler,
    OneHotEncoder,
    StandardScaler,
    add_intercept,
    train_test_split,
)


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


class TestMinMaxScaler:
    def test_unit_range(self, rng):
        X = rng.standard_normal((60, 3)) * 7
        Z = MinMaxScaler().fit_transform(X)
        assert Z.min() == pytest.approx(0.0)
        assert Z.max() == pytest.approx(1.0)

    def test_constant_column_safe(self):
        X = np.full((5, 1), 3.0)
        Z = MinMaxScaler().fit_transform(X)
        assert np.allclose(Z, 0.0)


class TestOneHotEncoder:
    def test_basic_encoding(self):
        X = np.array([["a"], ["b"], ["a"]], dtype=object)
        enc = OneHotEncoder().fit(X)
        Z = enc.transform(X)
        assert Z.shape == (3, 2)
        assert Z.sum(axis=1).tolist() == [1.0, 1.0, 1.0]
        assert np.array_equal(Z[0], Z[2])

    def test_multi_column_width(self):
        X = np.array([["a", "x"], ["b", "y"], ["c", "x"]], dtype=object)
        enc = OneHotEncoder().fit(X)
        assert enc.transform(X).shape == (3, 5)

    def test_unknown_category_raises_by_default(self):
        enc = OneHotEncoder().fit(np.array([["a"]], dtype=object))
        with pytest.raises(ModelError, match="unknown category"):
            enc.transform(np.array([["z"]], dtype=object))

    def test_ignore_unknown_gives_zero_row(self):
        enc = OneHotEncoder(ignore_unknown=True).fit(
            np.array([["a"], ["b"]], dtype=object)
        )
        Z = enc.transform(np.array([["z"]], dtype=object))
        assert Z.sum() == 0.0

    def test_1d_input_reshaped(self):
        enc = OneHotEncoder().fit(np.array(["a", "b", "a"], dtype=object))
        assert enc.transform(np.array(["b"], dtype=object)).tolist() == [[0.0, 1.0]]

    def test_column_count_mismatch(self):
        enc = OneHotEncoder().fit(np.array([["a", "x"]], dtype=object))
        with pytest.raises(ModelError):
            enc.transform(np.array([["a"]], dtype=object))


class TestKBinsDiscretizer:
    def test_codes_in_range(self, rng):
        X = rng.standard_normal((100, 2))
        Z = KBinsDiscretizer(n_bins=4).fit_transform(X)
        assert Z.min() >= 0
        assert Z.max() <= 3

    def test_monotone_in_value(self):
        X = np.linspace(0, 10, 50).reshape(-1, 1)
        Z = KBinsDiscretizer(n_bins=5).fit_transform(X)
        assert np.all(np.diff(Z[:, 0]) >= 0)

    def test_equal_width_on_uniform(self):
        X = np.arange(100, dtype=float).reshape(-1, 1)
        Z = KBinsDiscretizer(n_bins=4).fit_transform(X)
        counts = np.bincount(Z[:, 0].astype(int))
        assert np.all(np.abs(counts - 25) <= 1)

    def test_min_bins_validation(self):
        with pytest.raises(ModelError):
            KBinsDiscretizer(n_bins=1).fit(np.ones((5, 1)))


class TestHelpers:
    def test_add_intercept(self, rng):
        X = rng.standard_normal((10, 3))
        Z = add_intercept(X)
        assert Z.shape == (10, 4)
        assert np.all(Z[:, 0] == 1.0)

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
