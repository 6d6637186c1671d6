"""Integration tests: scenarios that cross subsystem boundaries.

Each test exercises a realistic end-to-end path a downstream user would
take — relational data in, trained/evaluated models out — combining the
storage engine, in-DB ML, the DSL compiler, compression, factorized
learning, selection, and lifecycle layers.
"""

import numpy as np
import pytest

from repro.compiler import compile_expr
from repro.compression import CompressedMatrix
from repro.data import (
    make_classification,
    make_low_cardinality_matrix,
    make_regression,
    make_star_schema,
)
from repro.factorized import (
    FactorizedLinearRegression,
    NormalizedMatrix,
    tuple_ratio_rule,
)
from repro.feateng import FeatureSubsetExplorer, Pipeline
from repro.indb import InDBLinearRegression, InDBLogisticRegression
from repro.lang import matrix, sumall
from repro.lifecycle import ExperimentTracker, ModelRegistry
from repro.ml import (
    LinearRegression,
    LogisticRegression,
    StandardScaler,
    train_test_split,
)
from repro.runtime import BlockedMatrix, BlockStore, BufferPool, execute
from repro.selection import SelectionSession, grid_search
from repro.storage import Table, agg, col, filter_rows, group_by, hash_join


class TestRelationalToML:
    """Load relational data, transform with operators, train in-DB."""

    def test_join_filter_train_pipeline(self):
        rng = np.random.default_rng(51)
        n = 600
        customers = Table.from_columns(
            {
                "cust_id": np.arange(n),
                "age": rng.uniform(18, 80, n),
                "spend": rng.exponential(100, n),
                "segment_id": rng.integers(0, 5, n),
            }
        )
        segments = Table.from_columns(
            {
                "segment_id": np.arange(5),
                "seg_score": np.linspace(-2, 2, 5),
            }
        )
        joined = hash_join(customers, segments, on="segment_id")
        # Label depends on joined features.
        signal = (
            0.05 * joined.column("age")
            + 0.01 * joined.column("spend")
            + joined.column("seg_score")
        )
        labels = (signal > np.median(signal)).astype(np.int64)
        training = joined.with_column("label", labels)
        adults = filter_rows(training, col("age") >= 21)
        # Standardize features in-engine before IGD (step sizes assume
        # unit-scale features, as the MADlib docs advise).
        for name in ("age", "spend", "seg_score"):
            values = adults.column(name)
            std = values.std() or 1.0
            adults = adults.with_column(name, (values - values.mean()) / std)

        model = InDBLogisticRegression(epochs=30, learning_rate=0.1).fit(
            adults, ["age", "spend", "seg_score"], "label"
        )
        assert model.score(adults, "label") > 0.85

    def test_groupby_stats_feed_model_features(self, rng):
        n = 500
        events = Table.from_columns(
            {
                "user": rng.integers(0, 50, n),
                "amount": rng.exponential(10, n),
            }
        )
        per_user = group_by(
            events,
            ["user"],
            [agg("mean", "amount"), agg("count"), agg("max", "amount")],
        )
        X = per_user.to_matrix(["mean_amount", "count", "max_amount"])
        y = X @ np.array([1.0, 0.5, 0.2])
        model = LinearRegression().fit(X, y)
        assert model.score(X, y) > 0.999


class TestDSLDrivenTraining:
    """The compiled DSL and the in-memory library agree on GLM training."""

    def test_dsl_gradient_descent_matches_library(self):
        X_np, y_np, _ = make_regression(300, 6, noise=0.1, seed=52)
        n, d = X_np.shape

        X = matrix("X", (n, d))
        y = matrix("y", (n, 1))
        w = matrix("w", (d, 1))
        grad_plan = compile_expr((X.T @ (X @ w) - X.T @ y) / n)

        w_np = np.zeros(d)
        for _ in range(500):
            g = execute(grad_plan, {"X": X_np, "y": y_np, "w": w_np})[:, 0]
            w_np = w_np - 0.5 * g

        library = LinearRegression(fit_intercept=False).fit(X_np, y_np)
        assert np.allclose(w_np, library.coef_, atol=1e-3)

    def test_compiled_loss_agrees_with_metric(self):
        X_np, y_np, _ = make_regression(200, 4, seed=53)
        model = LinearRegression(fit_intercept=False).fit(X_np, y_np)
        n, d = X_np.shape
        X = matrix("X", (n, d))
        y = matrix("y", (n, 1))
        w = matrix("w", (d, 1))
        mse = execute(
            compile_expr(sumall((X @ w - y) ** 2) / n),
            {"X": X_np, "y": y_np, "w": model.coef_},
        )
        residual = y_np - model.predict(X_np)
        assert mse == pytest.approx(float(np.mean(residual**2)), rel=1e-9)


class TestCompressedTraining:
    """GLMs train directly on compressed matrices via MV kernels."""

    def test_gd_on_compressed_equals_dense(self):
        X = make_low_cardinality_matrix(2000, 6, cardinality=8, seed=54)
        rng = np.random.default_rng(54)
        w_true = rng.standard_normal(6)
        y = X @ w_true + 0.01 * rng.standard_normal(2000)

        C = CompressedMatrix.compress(X)
        assert C.compression_ratio > 2

        w = np.zeros(6)
        lr = 1.0 / (np.linalg.norm(X, 2) ** 2 / 2000 * 2)
        for _ in range(200):
            grad = C.rmatvec(C.matvec(w) - y) / 2000
            w = w - lr * grad
        assert np.allclose(w, w_true, atol=0.05)

    def test_normal_equations_via_compressed_gram(self):
        X = make_low_cardinality_matrix(3000, 5, cardinality=6, seed=55)
        rng = np.random.default_rng(55)
        w_true = rng.standard_normal(5)
        y = X @ w_true
        C = CompressedMatrix.compress(X)
        w = np.linalg.solve(
            C.gram() + 1e-9 * np.eye(5), C.rmatvec(y)
        )
        assert np.allclose(w, w_true, atol=1e-5)


class TestFactorizedVsMaterializedVsInDB:
    """Three training paths over the same star schema agree."""

    def test_three_way_agreement(self):
        star = make_star_schema(n_s=800, n_r=40, d_s=3, d_r=5, seed=56)
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])
        X = star.materialize()

        factorized = FactorizedLinearRegression().fit(nm, star.y)
        dense = LinearRegression(fit_intercept=False).fit(X, star.y)

        table = Table.from_columns(
            {f"c{i}": X[:, i] for i in range(X.shape[1])} | {"y": star.y}
        )
        indb = InDBLinearRegression(add_intercept=False).fit(
            table, [f"c{i}" for i in range(X.shape[1])], "y"
        )

        assert np.allclose(factorized.coef_, dense.coef_, atol=1e-6)
        assert np.allclose(indb.coef_, dense.coef_, atol=1e-6)

    def test_hamlet_decision_matches_measured_cost(self):
        star = make_star_schema(
            3000, 30, 4, 6, task="classification", fk_importance=0.1, seed=57
        )
        decision = tuple_ratio_rule(len(star.S), len(star.R))
        assert decision.avoid  # TR = 100
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])
        assert nm.redundancy_ratio > 1.3


class TestBufferedIterativeTraining:
    def test_blocked_gd_equals_in_memory(self):
        X_np, y_np, w_true = make_regression(1000, 5, noise=0.0, seed=58)
        store = BlockStore()
        blocked = BlockedMatrix.from_array(X_np, store, "X", block_rows=128)
        pool = BufferPool(store, capacity_bytes=10**7)

        w = np.zeros(5)
        for _ in range(300):
            r = blocked.matvec(w, pool) - y_np
            grad = sum(
                blocked.get_block(b, pool).T @ r[slice(*blocked.block_rows_of(b))]
                for b in range(blocked.num_blocks)
            ) / 1000
            w = w - 0.5 * grad
        assert np.allclose(w, w_true, atol=1e-4)
        assert pool.stats.hit_ratio > 0.9  # everything fits: epochs hit cache


class TestSelectionWithLifecycle:
    def test_search_results_flow_into_registry_and_tracker(self):
        X, y = make_classification(300, 4, separation=2.0, seed=59)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, 0.3, seed=59)

        tracker = ExperimentTracker()
        registry = ModelRegistry()

        result = grid_search(
            LogisticRegression(max_iter=40),
            {"l2": [1e-3, 1e-1, 1.0]},
            X_tr,
            y_tr,
            cv=3,
        )
        for evaluation in result.evaluations:
            run = tracker.start_run("logreg-tune", params=evaluation.params)
            run.log_metric("cv_score", evaluation.score)
            run.finish()

        best_params = tracker.best_run("logreg-tune", "cv_score").params
        final = LogisticRegression(max_iter=100, **best_params)
        final.fit(X_tr, y_tr)
        version = registry.register(
            "logreg",
            final,
            params=best_params,
            metrics={"test_acc": final.score(X_te, y_te)},
        )
        registry.deploy("logreg", version.version)

        deployed = registry.deployed("logreg")
        assert deployed.metrics["test_acc"] > 0.7
        assert deployed.params == result.best_params

    def test_session_plus_pipeline(self):
        X, y = make_classification(240, 4, separation=2.0, seed=60)
        pipe = Pipeline(
            [
                ("scale", StandardScaler()),
                ("model", LogisticRegression(max_iter=30)),
            ]
        )
        pipe.fit(X, y)
        assert pipe.score(X, y) > 0.8

        session = SelectionSession(
            LogisticRegression(max_iter=30), X, y, cv=3
        )
        session.run_grid({"l2": [0.01, 0.1]})
        session.run_grid({"l2": [0.01, 0.1]})  # fully cached second time
        assert session.ledger.configs_cached == session.ledger.configs_trained


class TestColumbusOverRelationalData:
    def test_subset_exploration_on_table_features(self, rng):
        n = 400
        table = Table.from_columns(
            {
                "f0": rng.standard_normal(n),
                "f1": rng.standard_normal(n),
                "f2": rng.standard_normal(n),
                "noise": rng.standard_normal(n),
            }
        )
        X = table.to_matrix(["f0", "f1", "f2", "noise"])
        y = X[:, 0] * 2 + X[:, 1] - X[:, 2] * 0.5
        explorer = FeatureSubsetExplorer(X, y)
        trail = explorer.forward_selection(min_gain=1e-3)
        # The informative features are found; pure noise is excluded.
        assert set(trail[-1].columns) == {0, 1, 2}
