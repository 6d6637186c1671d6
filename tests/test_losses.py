"""Unit and property tests for repro.ml.losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.losses import LogisticLoss, SquaredLoss, sigmoid

LOSSES = [SquaredLoss(), LogisticLoss()]


def finite_difference_gradient(loss, X, y, w, eps=1e-6):
    grad = np.zeros_like(w)
    for i in range(len(w)):
        up, down = w.copy(), w.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (loss.value(X, y, up) - loss.value(X, y, down)) / (2 * eps)
    return grad


@pytest.fixture
def small_problem(rng):
    X = rng.standard_normal((40, 5))
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    w = rng.standard_normal(5) * 0.3
    return X, y, w


class TestGradients:
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
    def test_gradient_matches_finite_difference(self, loss, small_problem):
        X, y, w = small_problem
        analytic = loss.gradient(X, y, w)
        numeric = finite_difference_gradient(loss, X, y, w)
        assert np.allclose(analytic, numeric, atol=1e-4)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
    def test_pointwise_gradient_sums_to_batch(self, loss, small_problem):
        X, y, w = small_problem
        summed = sum(
            loss.pointwise_gradient(X[i], y[i], w) for i in range(len(y))
        ) / len(y)
        assert np.allclose(summed, loss.gradient(X, y, w), atol=1e-10)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
    @pytest.mark.filterwarnings("error")
    def test_pointwise_gradient_is_the_one_row_gradient_bitwise(self, loss, rng):
        """The scalar link takes ``_sigmoid``'s branch and ``np.exp``: the
        same bytes as the array form, and no overflow at +-700 margins."""
        for scale in (0.0, 1e-3, 1.0, 30.0, 700.0, -700.0):
            for _ in range(25):
                x = rng.standard_normal(5)
                w = scale * x / float(x @ x) + 1e-3 * rng.standard_normal(5)
                for y in (1.0, -1.0, np.float64(1.0)):
                    assert np.array_equal(
                        loss.pointwise_gradient(x, y, w),
                        loss.gradient(x[None, :], np.array([y]), w),
                    )
                    assert np.array_equal(
                        loss.gradient_sum(x[None, :], np.array([y]), w),
                        loss.gradient(x[None, :], np.array([y]), w),
                    )


class TestSquaredLoss:
    def test_zero_at_perfect_fit(self, rng):
        X = rng.standard_normal((20, 3))
        w = rng.standard_normal(3)
        assert SquaredLoss().value(X, X @ w, w) == pytest.approx(0.0, abs=1e-20)

    def test_value_formula(self):
        X = np.array([[1.0, 0.0]])
        y = np.array([3.0])
        w = np.array([1.0, 0.0])
        # residual -2 -> 0.5 * 4 / 1 = 2
        assert SquaredLoss().value(X, y, w) == pytest.approx(2.0)


class TestLogisticLoss:
    def test_value_at_zero_weights_is_log2(self, small_problem):
        X, y, _ = small_problem
        assert LogisticLoss().value(X, y, np.zeros(5)) == pytest.approx(np.log(2))

    def test_large_positive_margin_near_zero_loss(self):
        X = np.array([[100.0]])
        assert LogisticLoss().value(X, np.array([1.0]), np.array([1.0])) < 1e-20

    def test_no_overflow_on_extreme_margins(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([-1.0, 1.0])
        value = LogisticLoss().value(X, y, np.array([1.0]))
        assert np.isfinite(value)


class TestSigmoid:
    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0)

    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_always_in_unit_interval(self, z):
        value = sigmoid(np.array([z]))[0]
        assert 0.0 <= value <= 1.0
        assert np.isfinite(value)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, zs):
        z = np.sort(np.asarray(zs))
        s = sigmoid(z)
        assert np.all(np.diff(s) >= -1e-12)
