"""Tests for multi-output programs, random forests, feature hashing,
and out-of-core training."""

import numpy as np
import pytest

from repro.compiler import compile_program, execute_program
from repro.data import make_categorical, make_classification, make_regression
from repro.errors import CompilerError, ExecutionError, ModelError, NotFittedError
from repro.lang import matrix, sumall
from repro.ml import (
    DecisionTreeClassifier,
    FeatureHasher,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.runtime import OutOfCoreLinearRegression


class TestProgramCompilation:
    def _loss_grad_program(self, n=200, d=8):
        X = matrix("X", (n, d))
        w = matrix("w", (d, 1))
        y = matrix("y", (n, 1))
        residual = X @ w - y
        return compile_program(
            {"loss": sumall(residual**2) / n, "grad": X.T @ residual / n}
        )

    def test_outputs_correct(self, rng):
        n, d = 200, 8
        program = self._loss_grad_program(n, d)
        b = {
            "X": rng.standard_normal((n, d)),
            "w": rng.standard_normal(d),
            "y": rng.standard_normal(n),
        }
        out = execute_program(program, b)
        residual = b["X"] @ b["w"] - b["y"]
        assert out["loss"] == pytest.approx(float(residual @ residual) / n)
        assert np.allclose(out["grad"][:, 0], b["X"].T @ residual / n)

    def test_shared_subexpressions_evaluated_once(self, rng):
        n, d = 100, 5
        program = self._loss_grad_program(n, d)
        b = {
            "X": rng.standard_normal((n, d)),
            "w": rng.standard_normal(d),
            "y": rng.standard_normal(n),
        }
        _, stats = execute_program(program, b, collect_stats=True)
        # The residual subtraction appears in both outputs but runs once.
        assert stats.op_counts["binary:-"] == 1
        # X@w once, X.T@residual once.
        assert stats.op_counts["matmul"] == 2

    def test_cse_shares_across_outputs_vs_separate_compiles(self):
        from repro.compiler import compile_expr, count_unique_ops

        n, d = 50, 4
        X = matrix("X", (n, d))
        w = matrix("w", (d, 1))
        y = matrix("y", (n, 1))
        residual = X @ w - y
        program = compile_program(
            {"a": sumall(residual**2), "b": sumall(residual)}
        )
        separate = count_unique_ops(
            compile_expr(sumall(residual**2)).root
        ) + count_unique_ops(compile_expr(sumall(residual)).root)
        assert program.num_ops < separate

    def test_conflicting_input_shapes_rejected(self):
        a = matrix("X", (5, 4))
        b = matrix("X", (6, 4))
        with pytest.raises(CompilerError, match="conflicting"):
            compile_program({"a": sumall(a), "b": sumall(b)})

    def test_empty_program_rejected(self):
        with pytest.raises(CompilerError):
            compile_program({})

    def test_gd_driver_via_program(self, rng):
        """A GD loop using the loss+grad program converges."""
        n, d = 300, 6
        Xv = rng.standard_normal((n, d))
        w_true = rng.standard_normal(d)
        yv = Xv @ w_true
        program = self._loss_grad_program(n, d)
        wv = np.zeros(d)
        for _ in range(400):
            out = execute_program(program, {"X": Xv, "w": wv, "y": yv})
            wv = wv - 0.5 * out["grad"][:, 0]
        assert np.allclose(wv, w_true, atol=1e-3)


class TestRandomForest:
    def test_classifier_beats_single_tree(self):
        X, y = make_classification(500, 8, separation=1.0, seed=101)
        from repro.ml.preprocessing import train_test_split

        X_tr, X_te, y_tr, y_te = train_test_split(X, y, 0.3, seed=101)
        tree = DecisionTreeClassifier(max_depth=6).fit(X_tr, y_tr)
        forest = RandomForestClassifier(
            n_trees=25, max_depth=6, seed=101
        ).fit(X_tr, y_tr)
        assert forest.score(X_te, y_te) >= tree.score(X_te, y_te) - 0.02

    def test_vote_fractions_valid(self, classification_data):
        X, y = classification_data
        forest = RandomForestClassifier(n_trees=9, seed=1).fit(X, y)
        p = forest.predict_proba(X)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all((p >= 0) & (p <= 1))

    def test_regressor_quality(self, regression_data):
        X, y, _ = regression_data
        forest = RandomForestRegressor(n_trees=20, max_depth=6, seed=2).fit(X, y)
        assert forest.score(X, y) > 0.6

    def test_deterministic_given_seed(self, classification_data):
        X, y = classification_data
        a = RandomForestClassifier(n_trees=5, seed=7).fit(X, y).predict(X)
        b = RandomForestClassifier(n_trees=5, seed=7).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_feature_subsampling_recorded(self, classification_data):
        X, y = classification_data
        forest = RandomForestClassifier(
            n_trees=4, max_features=0.4, seed=3
        ).fit(X, y)
        for features in forest.feature_sets_:
            assert len(features) == 2  # 0.4 * 5 features

    def test_validation(self, classification_data):
        X, y = classification_data
        with pytest.raises(ModelError):
            RandomForestClassifier(n_trees=0).fit(X, y)
        with pytest.raises(ModelError):
            RandomForestClassifier(max_features=1.5).fit(X, y)
        forest = RandomForestClassifier(n_trees=3).fit(X, y)
        with pytest.raises(ModelError):
            forest.predict(X[:, :2])


class TestFeatureHasher:
    def test_fixed_width_regardless_of_cardinality(self):
        X, _ = make_categorical(200, 3, cardinality=100, seed=5)
        H = FeatureHasher(n_features=16).fit_transform(X)
        assert H.shape == (200, 16)

    def test_deterministic_across_instances(self):
        X, _ = make_categorical(50, 2, seed=6)
        a = FeatureHasher(n_features=32).fit_transform(X)
        b = FeatureHasher(n_features=32).fit_transform(X)
        assert np.array_equal(a, b)

    def test_same_row_same_encoding(self):
        X = np.array([["a", "b"], ["a", "b"], ["c", "d"]], dtype=object)
        H = FeatureHasher(n_features=8).fit_transform(X)
        assert np.array_equal(H[0], H[1])
        assert not np.array_equal(H[0], H[2])

    def test_column_position_matters(self):
        Xa = np.array([["v", "w"]], dtype=object)
        Xb = np.array([["w", "v"]], dtype=object)
        hasher = FeatureHasher(n_features=64).fit(Xa)
        assert not np.array_equal(hasher.transform(Xa), hasher.transform(Xb))

    def test_learnable_signal_survives_hashing(self):
        X, y = make_categorical(600, 4, cardinality=8, signal=4.0, seed=7)
        H = FeatureHasher(n_features=64).fit_transform(X)
        from repro.ml import LogisticRegression

        model = LogisticRegression(solver="gd", max_iter=80).fit(H, y)
        assert model.score(H, y) > 0.75

    def test_validation(self):
        with pytest.raises(ModelError):
            FeatureHasher(n_features=0).fit(np.array([["a"]], dtype=object))


class TestOutOfCore:
    def test_matches_in_memory_solution(self):
        X, y, w_true = make_regression(3000, 6, noise=0.0, seed=103)
        model = OutOfCoreLinearRegression(
            epochs=400, block_rows=256, tol=1e-14
        ).fit(X, y)
        assert np.allclose(model.coef_, w_true, atol=1e-4)
        assert model.score(X, y) > 0.9999

    def test_converges_under_memory_pressure(self):
        X, y, w_true = make_regression(3000, 6, noise=0.0, seed=104)
        model = OutOfCoreLinearRegression(
            epochs=400,
            block_rows=256,
            memory_budget_bytes=X.nbytes // 5,
            tol=1e-14,
        ).fit(X, y)
        assert np.allclose(model.coef_, w_true, atol=1e-4)
        # Thrash: every epoch re-reads the store.
        assert model.result_.pool_stats.hit_ratio == 0.0
        assert model.result_.bytes_read_from_store > X.nbytes * 2

    def test_fitting_pool_serves_epochs_from_cache(self):
        X, y, _ = make_regression(3000, 6, noise=0.0, seed=105)
        model = OutOfCoreLinearRegression(epochs=50, block_rows=256).fit(X, y)
        assert model.result_.pool_stats.hit_ratio > 0.9
        assert model.result_.bytes_read_from_store <= X.nbytes * 1.01

    def test_loss_history_decreases(self):
        X, y, _ = make_regression(1000, 4, seed=106)
        model = OutOfCoreLinearRegression(epochs=30).fit(X, y)
        history = model.result_.loss_history
        assert history[-1] < history[0]

    def test_validation(self):
        with pytest.raises(ExecutionError):
            OutOfCoreLinearRegression().fit(np.ones((5, 2)), np.ones(3))
        with pytest.raises(NotFittedError):
            OutOfCoreLinearRegression().predict(np.ones((2, 2)))
