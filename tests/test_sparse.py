"""Unit and property tests for the sparse (CSR) substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import propagate_sparsity
from repro.data import make_sparse_matrix
from repro.lang import exp, matrix, sumall
from repro.sparse import CSRMatrix, SparseError


@pytest.fixture
def dense_and_sparse(rng):
    Xd = make_sparse_matrix(300, 20, density=0.08, seed=3)
    return Xd, CSRMatrix.from_dense(Xd)


class TestConstruction:
    def test_from_dense_roundtrip(self, dense_and_sparse):
        Xd, X = dense_and_sparse
        assert np.allclose(X.to_dense(), Xd)
        assert X.nnz == np.count_nonzero(Xd)

    def test_from_dense_threshold(self):
        Xd = np.array([[0.1, 2.0], [0.05, 0.0]])
        X = CSRMatrix.from_dense(Xd, threshold=0.5)
        assert X.nnz == 1
        assert X.to_dense()[0, 1] == 2.0

    def test_invalid_structure_rejected(self):
        with pytest.raises(SparseError):
            CSRMatrix(np.ones(1), np.array([5]), np.array([0, 1]), (1, 3))
        with pytest.raises(SparseError):
            CSRMatrix(np.ones(1), np.array([0]), np.array([0, 2]), (1, 3))

    def test_3d_rejected(self):
        with pytest.raises(SparseError):
            CSRMatrix.from_dense(np.ones((2, 2, 2)))


class TestKernels:
    def test_matvec(self, dense_and_sparse, rng):
        Xd, X = dense_and_sparse
        v = rng.standard_normal(20)
        assert np.allclose(X.matvec(v), Xd @ v)

    def test_rmatvec(self, dense_and_sparse, rng):
        Xd, X = dense_and_sparse
        u = rng.standard_normal(300)
        assert np.allclose(X.rmatvec(u), Xd.T @ u)

    def test_matmat(self, dense_and_sparse, rng):
        Xd, X = dense_and_sparse
        B = rng.standard_normal((20, 4))
        assert np.allclose(X.matmat(B), Xd @ B)

    def test_matmul_operator(self, dense_and_sparse, rng):
        Xd, X = dense_and_sparse
        v = rng.standard_normal(20)
        assert np.allclose(X @ v, Xd @ v)

    def test_transpose_view(self, dense_and_sparse, rng):
        Xd, X = dense_and_sparse
        u = rng.standard_normal(300)
        U = rng.standard_normal((300, 3))
        assert np.allclose(X.T @ u, Xd.T @ u)
        assert np.allclose(X.T @ U, Xd.T @ U)
        assert X.T.T is X
        assert X.T.shape == (20, 300)
        assert np.allclose(X.T.to_dense(), Xd.T)
        with pytest.raises(SparseError):
            X.T @ np.ones((3, 2))

    def test_value_map_refuses_what_would_fill_the_zeros(self, dense_and_sparse):
        # CSR's value map keeps implicit zeros implicit, so X + c
        # (c != 0) is refused, typed.
        Xd, X = dense_and_sparse
        assert np.allclose(X.map_values(lambda v: v + 0.0).to_dense(), Xd)
        with pytest.raises(SparseError, match="0 to 0"):
            X.map_values(lambda v: v + 1.0)
        with pytest.raises(SparseError, match="0 to 0"):
            X.map_values(np.exp)

    def test_scale(self, dense_and_sparse):
        Xd, X = dense_and_sparse
        assert np.allclose(X.scale(2.5).to_dense(), 2.5 * Xd)

    def test_multiply_dense(self, dense_and_sparse, rng):
        Xd, X = dense_and_sparse
        D = rng.standard_normal(Xd.shape)
        assert np.allclose(X.multiply_dense(D).to_dense(), Xd * D)

    def test_sums(self, dense_and_sparse):
        Xd, X = dense_and_sparse
        assert np.allclose(X.colsums(), Xd.sum(axis=0))
        assert np.allclose(X.rowsums(), Xd.sum(axis=1))
        assert X.sum() == pytest.approx(Xd.sum())

    def test_empty_rows_handled(self):
        Xd = np.zeros((4, 3))
        Xd[1, 2] = 5.0
        X = CSRMatrix.from_dense(Xd)
        assert np.allclose(X.matvec(np.ones(3)), Xd @ np.ones(3))
        assert np.allclose(X.rowsums(), [0.0, 5.0, 0.0, 0.0])

    def test_dimension_validation(self, dense_and_sparse):
        _, X = dense_and_sparse
        with pytest.raises(SparseError):
            X.matvec(np.ones(3))
        with pytest.raises(SparseError):
            X.rmatvec(np.ones(3))

    def test_memory_advantage(self):
        Xd = make_sparse_matrix(5000, 100, density=0.01, seed=5)
        X = CSRMatrix.from_dense(Xd)
        assert X.nbytes < Xd.nbytes / 10

    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 20),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_kernels_match_dense(self, n, d, density, seed):
        rng = np.random.default_rng(seed)
        X = CSRMatrix.from_dense(
            rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
        )
        Xd = X.to_dense()
        v = rng.standard_normal(d)
        u = rng.standard_normal(n)
        assert np.allclose(X.matvec(v), Xd @ v, atol=1e-10)
        assert np.allclose(X.rmatvec(u), Xd.T @ u, atol=1e-10)
        assert np.allclose(X.colsums(), Xd.sum(axis=0), atol=1e-10)


def _whole_matvec(X, v):
    """The whole-call X @ v body before it became the (0, rows) row
    block — kept here as the oracle."""
    products = X.data * v[X.indices]
    out = np.zeros(X.shape[0])
    nonempty = np.diff(X.indptr) > 0
    if products.size:
        out[nonempty] = np.add.reduceat(products, X.indptr[:-1][nonempty])
    return out


def _whole_rmatvec(X, u):
    """The whole-call X.T @ u body, likewise."""
    row_of = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    return np.bincount(
        X.indices, weights=X.data * u[row_of], minlength=X.shape[1]
    )


class TestWholeCallIsOneRowBlock:
    @given(
        n=st.integers(0, 40),
        d=st.integers(1, 8),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        blocks=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_the_old_whole_call_bodies(
        self, n, d, density, blocks, seed
    ):
        from repro.sparse.csr import _rowblock_matvec, _rowblock_rmatvec

        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
        dense[rng.random(n) < 0.3] = 0.0  # empty rows, possibly all of them
        X = CSRMatrix.from_dense(dense)
        v, u = rng.standard_normal(d), rng.standard_normal(n)
        assert np.array_equal(X.matvec(v), _whole_matvec(X, v))
        assert np.array_equal(X.rmatvec(u), _whole_rmatvec(X, u))

        cuts = np.linspace(0, n, blocks + 1).astype(int)
        bounds = list(zip(cuts, cuts[1:]))
        stacked = [_rowblock_matvec(X, v, b) for b in bounds]
        assert np.array_equal(np.concatenate(stacked), _whole_matvec(X, v))
        # partial sums reassociate, so the block fold is bitwise only
        # where every sum is exact: on a grid
        G = CSRMatrix.from_dense(np.round(dense * 4) / 4)
        g = np.round(u * 4) / 4
        folded = sum(_rowblock_rmatvec(G, g, b) for b in bounds)
        assert np.array_equal(folded, _whole_rmatvec(G, g))


class TestSparseGLMTraining:
    """The existing optimizers train on CSR designs unchanged."""

    def test_gd_matches_dense_exactly(self, rng):
        from repro.ml.losses import SquaredLoss
        from repro.ml.optim import gradient_descent

        Xd = make_sparse_matrix(800, 15, density=0.1, seed=6)
        X = CSRMatrix.from_dense(Xd)
        y = Xd @ rng.standard_normal(15)
        sparse = gradient_descent(
            SquaredLoss(), X, y, max_iter=50, warn_on_cap=False
        )
        dense = gradient_descent(
            SquaredLoss(), Xd, y, max_iter=50, warn_on_cap=False
        )
        assert np.allclose(sparse.weights, dense.weights, atol=1e-12)



class TestSparsityPropagation:
    def test_input_default_dense(self):
        X = matrix("X", (10, 5))
        s = propagate_sparsity(X.node)
        assert s[id(X.node)] == 1.0

    def test_elementwise_multiply(self):
        X = matrix("X", (10, 5))
        Y = matrix("Y", (10, 5))
        expr = (X * Y).node
        s = propagate_sparsity(expr, {"X": 0.1, "Y": 0.5})
        assert s[id(expr)] == pytest.approx(0.05)

    def test_add_saturates_at_one(self):
        X = matrix("X", (10, 5))
        Y = matrix("Y", (10, 5))
        expr = (X + Y).node
        s = propagate_sparsity(expr, {"X": 0.8, "Y": 0.7})
        assert s[id(expr)] == 1.0

    def test_exp_densifies(self):
        X = matrix("X", (10, 5))
        expr = exp(X).node
        s = propagate_sparsity(expr, {"X": 0.01})
        assert s[id(expr)] == 1.0

    def test_neg_preserves(self):
        X = matrix("X", (10, 5))
        expr = (-X).node
        assert propagate_sparsity(expr, {"X": 0.2})[id(expr)] == 0.2

    def test_matmul_formula(self):
        X = matrix("X", (10, 100))
        Y = matrix("Y", (100, 10))
        expr = (X @ Y).node
        s = propagate_sparsity(expr, {"X": 0.01, "Y": 0.01})
        expected = 1.0 - (1.0 - 0.01 * 0.01) ** 100
        assert s[id(expr)] == pytest.approx(expected)

    def test_pow_zero_densifies(self):
        X = matrix("X", (10, 5))
        expr = (X ** 0.0).node
        assert propagate_sparsity(expr, {"X": 0.1})[id(expr)] == 1.0

    def test_pow_positive_preserves(self):
        X = matrix("X", (10, 5))
        expr = (X ** 2).node
        assert propagate_sparsity(expr, {"X": 0.1})[id(expr)] == 0.1

    def test_constant_sparsity_measured(self):
        from repro.lang import const

        c = const(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert propagate_sparsity(c.node)[id(c.node)] == 0.25
