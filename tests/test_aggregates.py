"""Unit tests for repro.storage.aggregates."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.aggregates import Count, Max, Mean, Min, Sum, agg


@pytest.fixture
def grouped():
    """values, group ids (two groups), num_groups."""
    values = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
    gids = np.array([0, 0, 0, 1, 1])
    return values, gids, 2


class TestFunctions:
    def test_count(self, grouped):
        _, gids, k = grouped
        assert Count().apply(None, gids, k).tolist() == [3, 2]

    def test_sum(self, grouped):
        v, gids, k = grouped
        assert Sum().apply(v, gids, k).tolist() == [6.0, 30.0]

    def test_mean(self, grouped):
        v, gids, k = grouped
        assert Mean().apply(v, gids, k).tolist() == [2.0, 15.0]

    def test_min_max(self, grouped):
        v, gids, k = grouped
        assert Min().apply(v, gids, k).tolist() == [1.0, 10.0]
        assert Max().apply(v, gids, k).tolist() == [3.0, 20.0]

    def test_sum_rejects_strings(self):
        with pytest.raises(StorageError, match="numeric"):
            Sum().apply(np.array(["a"], dtype=object), np.array([0]), 1)

    def test_sum_requires_column(self):
        with pytest.raises(StorageError):
            Sum().apply(None, np.array([0]), 1)

    def test_empty_group_mean_is_zero_not_nan(self):
        # Group 1 has no rows; mean must not divide by zero.
        out = Mean().apply(np.array([5.0]), np.array([0]), 2)
        assert out[0] == 5.0
        assert np.isfinite(out[1])


class TestAggSpecFactory:
    def test_default_output_name(self):
        assert agg("sum", "x").output == "sum_x"
        assert agg("count").output == "count"

    def test_custom_output_name(self):
        assert agg("mean", "x", output="avg").output == "avg"

    def test_avg_alias(self):
        assert agg("avg", "x").func.name == "mean"

    def test_unknown_aggregate(self):
        with pytest.raises(StorageError, match="unknown aggregate"):
            agg("median", "x")

    def test_column_required(self):
        with pytest.raises(StorageError, match="requires a column"):
            agg("sum")
