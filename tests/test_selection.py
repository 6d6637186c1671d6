"""Unit tests for model-selection management."""

import numpy as np
import pytest

from repro.data import make_classification
from repro.errors import SelectionError
from repro.ml import LogisticRegression
from repro.ml.preprocessing import train_test_split
from repro.selection import (
    KFold,
    SelectionSession,
    expand_grid,
    fit_logistic_path,
    grid_search,
    random_search,
    successive_halving,
)


@pytest.fixture
def data():
    return make_classification(300, 5, separation=2.0, seed=31)


class TestKFold:
    def test_folds_partition_rows(self):
        cv = KFold(4, seed=1)
        folds = cv.folds(103)
        flat = np.concatenate(folds)
        assert len(flat) == 103
        assert len(np.unique(flat)) == 103

    def test_split_disjoint_train_test(self):
        cv = KFold(3, seed=2)
        for train, test in cv.split(60):
            assert not set(train) & set(test)
            assert len(train) + len(test) == 60

    def test_folds_cached_and_stable(self):
        cv = KFold(3, seed=3)
        a = cv.folds(50)
        b = cv.folds(50)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_unshuffled_folds_contiguous(self):
        cv = KFold(2, shuffle=False)
        folds = cv.folds(10)
        assert folds[0].tolist() == [0, 1, 2, 3, 4]

    def test_too_few_rows(self):
        with pytest.raises(SelectionError):
            KFold(10).folds(5)

    def test_n_splits_validation(self):
        with pytest.raises(SelectionError):
            KFold(1)


class TestGrid:
    def test_expand_grid_cartesian(self):
        combos = expand_grid({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(combos) == 6
        assert {"a": 1, "b": "x"} in combos

    def test_expand_grid_validation(self):
        with pytest.raises(SelectionError):
            expand_grid({})
        with pytest.raises(SelectionError):
            expand_grid({"a": []})

    def test_grid_search_finds_reasonable_config(self, data):
        X, y = data
        result = grid_search(
            LogisticRegression(max_iter=40),
            {"l2": [1e-3, 1e-1, 10.0]},
            X,
            y,
            cv=3,
        )
        assert len(result.evaluations) == 3
        assert result.best_score >= max(
            e.score for e in result.evaluations
        ) - 1e-12
        # Heavy regularization on separated data should lose.
        assert result.best_params["l2"] < 10.0

    def test_cost_accounting_positive(self, data):
        X, y = data
        result = grid_search(
            LogisticRegression(max_iter=40),
            {"l2": [0.01, 0.1]},
            X,
            y,
            cv=3,
        )
        assert result.total_cost > 0
        assert all(e.cost > 0 for e in result.evaluations)

    def test_fold_scores_recorded(self, data):
        X, y = data
        result = grid_search(
            LogisticRegression(max_iter=30), {"l2": [0.1]}, X, y, cv=4
        )
        assert len(result.evaluations[0].fold_scores) == 4

    def test_empty_result_best_raises(self):
        from repro.selection import SearchResult

        with pytest.raises(SelectionError):
            SearchResult([]).best


class TestRandomSearch:
    def test_discrete_and_continuous_spaces(self, data):
        X, y = data
        result = random_search(
            LogisticRegression(max_iter=30),
            {
                "l2": ("loguniform", 1e-4, 1.0),
                "learning_rate": ("uniform", 0.1, 2.0),
                "fit_intercept": [True, False],
            },
            X,
            y,
            n_samples=6,
            cv=3,
            seed=5,
        )
        assert len(result.evaluations) == 6
        for e in result.evaluations:
            assert 1e-4 <= e.params["l2"] <= 1.0
            assert 0.1 <= e.params["learning_rate"] <= 2.0

    def test_deterministic_given_seed(self, data):
        X, y = data
        kwargs = dict(n_samples=3, cv=3, seed=9)
        a = random_search(
            LogisticRegression(max_iter=20),
            {"l2": ("loguniform", 1e-4, 1.0)},
            X,
            y,
            **kwargs,
        )
        b = random_search(
            LogisticRegression(max_iter=20),
            {"l2": ("loguniform", 1e-4, 1.0)},
            X,
            y,
            **kwargs,
        )
        assert [e.params for e in a.evaluations] == [e.params for e in b.evaluations]

    def test_invalid_space(self, data):
        X, y = data
        with pytest.raises(SelectionError):
            random_search(
                LogisticRegression(),
                {"l2": ("loguniform", -1.0, 1.0)},
                X,
                y,
                n_samples=1,
            )
        with pytest.raises(SelectionError):
            random_search(LogisticRegression(), {"l2": []}, X, y, n_samples=1)

    def test_n_samples_validation(self, data):
        X, y = data
        with pytest.raises(SelectionError):
            random_search(LogisticRegression(), {"l2": [0.1]}, X, y, n_samples=0)


class TestSuccessiveHalving:
    @pytest.fixture
    def split_data(self, data):
        X, y = data
        return train_test_split(X, y, test_fraction=0.3, seed=32)

    def test_costs_far_below_full_budget(self, split_data):
        X_tr, X_val, y_tr, y_val = split_data
        configs = [{"l2": l2} for l2 in np.logspace(-4, 1, 16)]
        halving = successive_halving(
            LogisticRegression(),
            configs,
            X_tr,
            y_tr,
            X_val,
            y_val,
            min_budget=2,
            max_budget=32,
        )
        full = successive_halving(
            LogisticRegression(),
            configs,
            X_tr,
            y_tr,
            X_val,
            y_val,
            min_budget=32,
            max_budget=32,
        )
        assert halving.total_cost < full.total_cost / 2
        assert halving.best_score >= full.best_score - 0.05

    def test_rung_structure(self, split_data):
        X_tr, X_val, y_tr, y_val = split_data
        configs = [{"l2": l2} for l2 in [1e-3, 1e-2, 1e-1, 1.0]]
        result = successive_halving(
            LogisticRegression(),
            configs,
            X_tr,
            y_tr,
            X_val,
            y_val,
            min_budget=2,
            max_budget=8,
            eta=2,
        )
        assert [r.budget for r in result.rungs] == [2, 4, 8]
        assert [len(r.survivors) for r in result.rungs] == [4, 2, 1]

    def test_budgets_validation(self, split_data):
        X_tr, X_val, y_tr, y_val = split_data
        with pytest.raises(SelectionError):
            successive_halving(
                LogisticRegression(), [{}], X_tr, y_tr, X_val, y_val, min_budget=0
            )
        with pytest.raises(SelectionError):
            successive_halving(
                LogisticRegression(),
                [{}],
                X_tr,
                y_tr,
                X_val,
                y_val,
                min_budget=10,
                max_budget=5,
            )
        with pytest.raises(SelectionError):
            successive_halving(
                LogisticRegression(), [], X_tr, y_tr, X_val, y_val
            )
        with pytest.raises(SelectionError):
            successive_halving(
                LogisticRegression(), [{}], X_tr, y_tr, X_val, y_val, eta=1
            )


class TestWarmStart:
    def test_warm_path_cheaper_than_cold(self, data):
        X, y = data
        lambdas = np.logspace(0, -3, 8)
        warm = fit_logistic_path(X, y, lambdas, warm_start=True, tol=1e-8)
        cold = fit_logistic_path(X, y, lambdas, warm_start=False, tol=1e-8)
        assert warm.total_iterations < cold.total_iterations

    def test_paths_agree_on_solutions(self, data):
        X, y = data
        lambdas = [1.0, 0.1, 0.01]
        warm = fit_logistic_path(X, y, lambdas, warm_start=True)
        cold = fit_logistic_path(X, y, lambdas, warm_start=False)
        for wp, cp in zip(warm.points, cold.points):
            assert np.allclose(wp.coef, cp.coef, atol=1e-2)

    def test_visits_largest_lambda_first(self, data):
        X, y = data
        path = fit_logistic_path(X, y, [0.01, 1.0, 0.1])
        assert [p.l2 for p in path.points] == [1.0, 0.1, 0.01]

    def test_validation(self, data):
        X, y = data
        with pytest.raises(SelectionError):
            fit_logistic_path(X, y, [])
        with pytest.raises(SelectionError):
            fit_logistic_path(X, y, [-1.0])


class TestSelectionSession:
    def test_cache_avoids_retraining(self, data):
        X, y = data
        session = SelectionSession(
            LogisticRegression(max_iter=30), X, y, cv=3
        )
        session.run_grid({"l2": [0.01, 0.1]})
        cost_after_first = session.ledger.total_cost
        session.run_grid({"l2": [0.01, 0.1, 1.0]})
        assert session.ledger.configs_cached == 2
        assert session.ledger.configs_trained == 3
        # Only the new config added cost.
        assert session.ledger.total_cost > cost_after_first

    def test_best_requires_history(self, data):
        X, y = data
        session = SelectionSession(LogisticRegression(), X, y)
        with pytest.raises(SelectionError):
            session.best
