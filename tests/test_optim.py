"""Unit tests for repro.ml.optim."""

import warnings
from functools import partial

import numpy as np
import pytest

from repro.errors import ConvergenceWarning
from repro.ml.losses import SquaredLoss
from repro.ml.optim import descend, gradient_descent


@pytest.fixture
def quadratic(rng):
    X = rng.standard_normal((200, 4))
    w_true = np.array([1.0, -2.0, 0.5, 3.0])
    y = X @ w_true
    return X, y, w_true


class TestGradientDescent:
    def test_recovers_exact_solution(self, quadratic):
        X, y, w_true = quadratic
        result = gradient_descent(SquaredLoss(), X, y, max_iter=500, tol=1e-14)
        assert np.allclose(result.weights, w_true, atol=1e-4)

    def test_loss_monotone_with_line_search(self, quadratic):
        X, y, _ = quadratic
        result = gradient_descent(SquaredLoss(), X, y, max_iter=50)
        diffs = np.diff(result.loss_history)
        assert np.all(diffs <= 1e-12)

    def test_converged_flag(self, quadratic):
        X, y, _ = quadratic
        result = gradient_descent(SquaredLoss(), X, y, max_iter=1000, tol=1e-10)
        assert result.converged
        assert result.iterations < 1000

    def test_warns_on_iteration_cap(self, quadratic):
        X, y, _ = quadratic
        with pytest.warns(ConvergenceWarning):
            gradient_descent(SquaredLoss(), X, y, max_iter=2, tol=0.0)

    def test_no_warning_when_disabled(self, quadratic):
        X, y, _ = quadratic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gradient_descent(
                SquaredLoss(), X, y, max_iter=2, tol=0.0, warn_on_cap=False
            )

    def test_l2_shrinks_weights(self, quadratic):
        X, y, _ = quadratic
        free = gradient_descent(SquaredLoss(), X, y, warn_on_cap=False)
        penalized = gradient_descent(
            SquaredLoss(), X, y, l2=10.0, warn_on_cap=False
        )
        assert np.linalg.norm(penalized.weights) < np.linalg.norm(free.weights)

    def test_warm_start_converges_faster(self, quadratic):
        X, y, w_true = quadratic
        cold = gradient_descent(
            SquaredLoss(), X, y, tol=1e-12, warn_on_cap=False
        )
        warm = gradient_descent(
            SquaredLoss(),
            X,
            y,
            w0=w_true + 0.001,
            tol=1e-12,
            warn_on_cap=False,
        )
        assert warm.iterations <= cold.iterations

    def test_fixed_step_without_line_search(self, quadratic):
        X, y, w_true = quadratic
        loss = SquaredLoss()
        result = descend(
            partial(loss.value, X, y), partial(loss.gradient, X, y),
            np.zeros(X.shape[1]), 0.1, 2000, 1e-14, line_search=False,
        )
        assert np.allclose(result.weights, w_true, atol=1e-3)
