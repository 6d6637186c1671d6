"""Unit tests for fold-level sufficient-statistics sharing in CV."""

import numpy as np
import pytest

from repro.data import make_regression
from repro.errors import SelectionError, StorageError
from repro.selection import KFold, ridge_cv_naive, ridge_cv_shared
from repro.storage import Table

LAMBDAS = [0.01, 0.1, 1.0, 10.0]


@pytest.fixture
def data():
    return make_regression(600, 8, noise=0.3, seed=95)


class TestRidgeCVShared:
    def test_identical_to_naive(self, data):
        X, y, _ = data
        cv = KFold(5, seed=1)
        shared = ridge_cv_shared(X, y, LAMBDAS, cv)
        naive = ridge_cv_naive(X, y, LAMBDAS, KFold(5, seed=1))
        assert np.allclose(shared.mean_rmse, naive.mean_rmse, atol=1e-9)
        assert shared.best_lambda == naive.best_lambda
        for l in LAMBDAS:
            assert np.allclose(shared.fold_rmse[l], naive.fold_rmse[l])

    def test_data_pass_accounting(self, data):
        X, y, _ = data
        shared = ridge_cv_shared(X, y, LAMBDAS, cv=5)
        naive = ridge_cv_naive(X, y, LAMBDAS, cv=5)
        assert shared.data_passes == 5  # one per fold
        assert naive.data_passes == 5 * len(LAMBDAS)

    def test_passes_independent_of_grid_size(self, data):
        X, y, _ = data
        small = ridge_cv_shared(X, y, [1.0], cv=4)
        large = ridge_cv_shared(X, y, np.logspace(-3, 3, 20), cv=4)
        assert small.data_passes == large.data_passes == 4

    def test_best_lambda_sensible(self, data):
        X, y, _ = data
        result = ridge_cv_shared(X, y, np.logspace(-4, 4, 9), cv=5)
        # Low-noise linear data: heavy regularization must lose.
        assert result.best_lambda < 100.0
        assert result.best_rmse < 1.0

    def test_validation(self, data):
        X, y, _ = data
        with pytest.raises(SelectionError):
            ridge_cv_shared(X, y, [], cv=3)
        with pytest.raises(SelectionError):
            ridge_cv_shared(X, y, [-1.0], cv=3)
        with pytest.raises(SelectionError):
            ridge_cv_shared(X, y[:5], [1.0], cv=3)


class TestTableFromMatrix:
    def test_default_names(self, rng):
        t = Table.from_matrix(rng.standard_normal((4, 3)))
        assert t.schema.names == ("f0", "f1", "f2")

    def test_label_column_appended(self, rng):
        X = rng.standard_normal((4, 2))
        t = Table.from_matrix(X, label=np.array([0, 1, 0, 1]))
        assert t.schema.names == ("f0", "f1", "label")
        assert np.allclose(t.to_matrix(["f0", "f1"]), X)

    def test_roundtrip_with_to_matrix(self, rng):
        X = rng.standard_normal((10, 5))
        t = Table.from_matrix(X)
        assert np.allclose(t.to_matrix(), X)

    def test_validation(self, rng):
        with pytest.raises(StorageError):
            Table.from_matrix(rng.standard_normal(5))
        with pytest.raises(StorageError):
            Table.from_matrix(
                rng.standard_normal((3, 2)), label=np.array([1, 2])
            )
