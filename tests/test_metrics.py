"""Unit tests for repro.ml.metrics."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import accuracy_score, r2_score


class TestRegressionMetrics:
    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r2_score(y, y) == 1.0
        assert r2_score(y, np.full(4, y.mean())) == pytest.approx(0.0)

    def test_r2_worse_than_mean_is_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.array([3.0, 1.0, -5.0])) < 0.0

    def test_r2_constant_target(self):
        y = np.ones(5)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, np.zeros(5)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            r2_score(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            r2_score(np.array([]), np.array([]))


class TestClassificationMetrics:
    def test_accuracy(self):
        assert accuracy_score(np.array([1, 0, 1, 1]), np.array([1, 0, 0, 1])) == 0.75
