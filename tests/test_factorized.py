"""Unit and property tests for factorized learning (Morpheus/Orion/Hamlet)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_multi_star_schema, make_star_schema
from repro.errors import FactorizationError, ModelError, NotFittedError
from repro.factorized import (
    FactorizedLinearRegression,
    FactorizedLogisticRegression,
    NormalizedMatrix,
    decide_joins,
    evaluate_join_avoidance,
    risk_bound,
    tuple_ratio_rule,
)
from repro.incremental import snap_to_grid
from repro.ml import LinearRegression, LogisticRegression
from repro.ml.linreg import Moments


@pytest.fixture
def nm(star):
    return NormalizedMatrix(star.S, [star.fk], [star.R]), star


class TestConstruction:
    def test_shape(self, nm):
        matrix, star = nm
        assert matrix.shape == (400, 3 + 6)
        assert matrix.d_s == 3
        assert matrix.d_rs == [6]

    def test_fk_out_of_range_rejected(self, star):
        bad_fk = star.fk.copy()
        bad_fk[0] = len(star.R) + 5
        with pytest.raises(FactorizationError, match="references rows"):
            NormalizedMatrix(star.S, [bad_fk], [star.R])

    def test_fractional_or_nan_fk_rejected(self):
        S, R = np.ones((2, 1)), np.arange(6.0).reshape(3, 2)
        for fk, shown in (([0.5, 2.9], r"0\.5 at row 0"), ([0.0, np.nan], "nan at row 1")):
            # a cast would truncate 0.5 -> row 0 and warn on NaN
            with np.errstate(invalid="raise"), pytest.raises(
                FactorizationError, match=rf"fk\[0\] has a non-integral key {shown}"
            ):
                NormalizedMatrix(S, [np.array(fk)], [R])
        # refused at the door, not as a bare numpy error deep in a kernel
        for fk in (np.array([[0], [2]]), np.array(["0", "2"])):
            with pytest.raises(
                FactorizationError, match=r"fk\[0\] must be a 1-D numeric vector"
            ):
                NormalizedMatrix(S, [fk], [R])
        assert NormalizedMatrix(S, [np.array([0.0, 2.0])], [R]).fks[0].tolist() == [0, 2]

    def test_row_count_mismatch_rejected(self, star):
        with pytest.raises(FactorizationError, match="row count"):
            NormalizedMatrix(star.S[:10], [star.fk], [star.R])

    def test_fk_table_count_mismatch(self, star):
        with pytest.raises(FactorizationError):
            NormalizedMatrix(star.S, [star.fk, star.fk], [star.R])

    def test_needs_something(self):
        with pytest.raises(FactorizationError):
            NormalizedMatrix(None, [], [])

    def test_no_entity_features(self, star):
        matrix = NormalizedMatrix(None, [star.fk], [star.R])
        assert matrix.shape == (400, 6)
        assert matrix.d_s == 0


class TestMorpheusKernels:
    def test_matvec(self, nm, rng):
        matrix, star = nm
        X = star.materialize()
        v = rng.standard_normal(9)
        assert np.allclose(matrix.matvec(v), X @ v)

    def test_rmatvec(self, nm, rng):
        matrix, star = nm
        X = star.materialize()
        u = rng.standard_normal(400)
        assert np.allclose(matrix.rmatvec(u), X.T @ u)

    def test_gram(self, nm):
        matrix, star = nm
        X = star.materialize()
        assert np.allclose(matrix.gram(), X.T @ X)

    def test_colsums(self, nm):
        matrix, star = nm
        assert np.allclose(matrix.colsums(), star.materialize().sum(axis=0))

    def test_transpose_view(self, nm, rng):
        matrix, star = nm
        X = star.materialize()
        u = rng.standard_normal(400)
        U = rng.standard_normal((400, 3))
        assert np.allclose(matrix.T @ u, X.T @ u)
        assert np.allclose(matrix.T @ U, X.T @ U)
        assert matrix.T.T is matrix
        assert np.allclose(matrix.T.to_dense(), X.T)
        with pytest.raises(FactorizationError):
            matrix.T @ np.ones((3, 2))

    def test_materialize_matches_generator(self, nm):
        matrix, star = nm
        assert np.allclose(matrix.materialize(), star.materialize())

    def test_vector_length_validation(self, nm):
        matrix, _ = nm
        with pytest.raises(FactorizationError):
            matrix.matvec(np.ones(3))
        with pytest.raises(FactorizationError):
            matrix.rmatvec(np.ones(3))

    def test_no_entity_kernels(self, star, rng):
        matrix = NormalizedMatrix(None, [star.fk], [star.R])
        X = star.R[star.fk]
        v = rng.standard_normal(6)
        assert np.allclose(matrix.matvec(v), X @ v)
        assert np.allclose(matrix.gram(), X.T @ X)

    def test_multi_table_gram_and_kernels(self, rng):
        S, fks, Rs, y, d_s = make_multi_star_schema(
            500, [(30, 4), (25, 3), (40, 2)], seed=11
        )
        matrix = NormalizedMatrix(S, fks, Rs)
        X = matrix.materialize()
        assert np.allclose(matrix.gram(), X.T @ X)
        v = rng.standard_normal(X.shape[1])
        assert np.allclose(matrix.matvec(v), X @ v)
        u = rng.standard_normal(500)
        assert np.allclose(matrix.rmatvec(u), X.T @ u)

    def test_redundancy_ratio_grows_with_tuple_ratio(self):
        low = make_star_schema(200, 100, 2, 10, seed=1)
        high = make_star_schema(2000, 20, 2, 10, seed=1)
        nm_low = NormalizedMatrix(low.S, [low.fk], [low.R])
        nm_high = NormalizedMatrix(high.S, [high.fk], [high.R])
        assert nm_high.redundancy_ratio > nm_low.redundancy_ratio

    @given(
        n_s=st.integers(10, 100),
        dims=st.lists(
            st.tuples(st.integers(2, 20), st.integers(1, 5)), min_size=1, max_size=3
        ),
        with_s=st.booleans(),
        seed=st.integers(0, 300),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_kernels_equal_materialized(self, n_s, dims, with_s, seed):
        S, fks, Rs, y, _ = make_multi_star_schema(n_s, dims, seed=seed)
        S = S if with_s else None
        matrix = NormalizedMatrix(S, fks, Rs)
        X = matrix.materialize()
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(X.shape[1])
        U = rng.standard_normal((n_s, 2))
        assert np.allclose(matrix.matvec(v), X @ v, atol=1e-8)
        assert np.allclose(matrix.rmatvec(y), X.T @ y, atol=1e-8)
        assert np.allclose(matrix.rmatmat(U), X.T @ U, atol=1e-8)
        assert np.allclose(matrix.gram(), X.T @ X, atol=1e-7)
        # On the grid every accumulation order is exact: bitwise.
        grid = NormalizedMatrix(
            None if S is None else snap_to_grid(4.0 * S),
            fks,
            [snap_to_grid(4.0 * R) for R in Rs],
        )
        Xg, yg = grid.materialize(), snap_to_grid(4.0 * y)
        assert np.array_equal(grid.gram(), Xg.T @ Xg)
        ours, dense = Moments.of(grid, yg), Moments.of(Xg, yg)
        assert np.array_equal(ours.gram, dense.gram)
        assert np.array_equal(ours.xty, dense.xty) and ours.yty == dense.yty

    def test_cross_dimension_gram_memory_is_pair_bounded(self):
        """Two 10**4-key dimensions: the R_1 x R_2 block reads distinct
        (fk_1, fk_2) pairs, not a dense 10**4 x 10**4 co-occurrence
        matrix (800 MB)."""
        rng = np.random.default_rng(0)
        n, keys = 200_000, 10_000
        fks = [rng.integers(0, keys, n) for _ in range(2)]
        Rs = [snap_to_grid(rng.standard_normal((keys, 3))) for _ in range(2)]
        matrix = NormalizedMatrix(None, fks, Rs)
        tracemalloc.start()
        try:
            gram = matrix.gram()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6, f"gram() peaked at {peak / 1e6:.0f} MB"
        X = matrix.materialize()
        assert np.array_equal(gram, X.T @ X)


class TestOrion:
    def test_factorized_linreg_matches_dense(self, nm):
        matrix, star = nm
        factorized = FactorizedLinearRegression(l2=0.01).fit(matrix, star.y)
        dense = LinearRegression(l2=0.01, fit_intercept=False).fit(
            star.materialize(), star.y
        )
        assert np.allclose(factorized.coef_, dense.coef_, atol=1e-6)

    def test_factorized_linreg_predicts_both_forms(self, nm):
        matrix, star = nm
        model = FactorizedLinearRegression().fit(matrix, star.y)
        from_normalized = model.predict(matrix)
        from_dense = model.predict(star.materialize())
        assert np.allclose(from_normalized, from_dense)
        assert model.score(matrix, star.y) > 0.95

    def test_factorized_logreg_accuracy(self):
        star = make_star_schema(
            1000, 50, 3, 6, task="classification", seed=13
        )
        matrix = NormalizedMatrix(star.S, [star.fk], [star.R])
        model = FactorizedLogisticRegression(l2=1e-3, max_iter=80).fit(
            matrix, star.y
        )
        assert model.score(matrix, star.y) > 0.75

    def test_factorized_logreg_matches_dense_direction(self):
        star = make_star_schema(800, 40, 3, 5, task="classification", seed=14)
        matrix = NormalizedMatrix(star.S, [star.fk], [star.R])
        factorized = FactorizedLogisticRegression(l2=0.1, max_iter=200).fit(
            matrix, star.y
        )
        dense = LogisticRegression(
            l2=0.1, fit_intercept=False, max_iter=200
        ).fit(star.materialize(), star.y)
        cosine = factorized.coef_ @ dense.coef_ / (
            np.linalg.norm(factorized.coef_) * np.linalg.norm(dense.coef_)
        )
        assert cosine > 0.999

    def test_predict_before_fit(self, nm):
        matrix, _ = nm
        with pytest.raises(NotFittedError):
            FactorizedLinearRegression().predict(matrix)

    def test_bad_inputs(self, nm):
        matrix, star = nm
        with pytest.raises(FactorizationError):
            FactorizedLinearRegression().fit(star.materialize(), star.y)
        with pytest.raises(FactorizationError):
            FactorizedLinearRegression().fit(matrix, star.y[:5])

    def test_logreg_needs_binary(self, nm):
        matrix, star = nm
        with pytest.raises(ModelError):
            FactorizedLogisticRegression().fit(matrix, np.arange(400))


class TestHamlet:
    def test_rule_threshold(self):
        assert tuple_ratio_rule(2000, 50).avoid
        assert not tuple_ratio_rule(100, 50).avoid

    def test_rule_validation(self):
        with pytest.raises(FactorizationError):
            tuple_ratio_rule(0, 5)

    def test_risk_bound_shrinks_with_tuple_ratio(self):
        assert risk_bound(10000, 10) < risk_bound(100, 10)

    def test_decide_joins_multiple_tables(self):
        decisions = decide_joins(10000, [10, 5000])
        assert decisions[0].avoid
        assert not decisions[1].avoid

    def test_avoidance_safe_at_high_tuple_ratio(self):
        star = make_star_schema(
            4000, 20, 4, 6, task="classification", fk_importance=0.2, seed=15
        )
        report = evaluate_join_avoidance(star, seed=15)
        assert report.decision.avoid
        # With weak FK-side signal and TR=200, dropping R costs little.
        assert report.accuracy_drop < 0.08

    def test_avoidance_requires_classification(self, star):
        with pytest.raises(FactorizationError):
            evaluate_join_avoidance(star)
