"""Unit tests for drift detection."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.feateng import detect_drift
from repro.storage import Table


class TestDriftDetection:
    def _table(self, rng, shift=0.0, cats=("a", "b", "c"), n=2000):
        return Table.from_columns(
            {
                "x": rng.standard_normal(n) + shift,
                "cat": rng.choice(list(cats), n).astype(object),
            }
        )

    def test_identical_distributions_no_drift(self, rng):
        train = self._table(rng)
        serve = self._table(np.random.default_rng(999))
        report = detect_drift(train, serve)
        assert report.drifted_columns == []
        assert all(c.score < 0.1 for c in report.columns)

    def test_mean_shift_detected(self, rng):
        train = self._table(rng)
        serve = self._table(np.random.default_rng(999), shift=2.0)
        report = detect_drift(train, serve)
        assert "x" in report.drifted_columns
        assert "cat" not in report.drifted_columns

    def test_new_category_detected(self, rng):
        train = self._table(rng, cats=("a", "b"))
        serve = self._table(
            np.random.default_rng(999), cats=("a", "b", "z", "z", "z")
        )
        report = detect_drift(train, serve, threshold=0.15)
        cat = next(c for c in report.columns if c.name == "cat")
        assert cat.drifted
        assert "new at serving" in cat.detail

    def test_missing_rate_change_contributes(self, rng):
        train = Table.from_columns({"x": rng.standard_normal(500)})
        serve_values = rng.standard_normal(500)
        serve_values[:250] = np.nan
        serve = Table.from_columns({"x": serve_values})
        report = detect_drift(train, serve)
        assert report.columns[0].score > 0.3

    def test_entirely_missing_side_max_drift(self, rng):
        train = Table.from_columns({"x": rng.standard_normal(100)})
        serve = Table.from_columns({"x": np.full(100, np.nan)})
        report = detect_drift(train, serve)
        assert report.columns[0].score == 1.0
        assert report.columns[0].drifted

    def test_column_subset_and_missing_column(self, rng):
        train = self._table(rng)
        serve = self._table(np.random.default_rng(999))
        report = detect_drift(train, serve, columns=["x"])
        assert [c.name for c in report.columns] == ["x"]
        with pytest.raises(SchemaError):
            detect_drift(train, serve, columns=["ghost"])

    def test_describe_orders_by_score(self, rng):
        train = self._table(rng)
        serve = self._table(np.random.default_rng(999), shift=3.0)
        text = detect_drift(train, serve).describe()
        assert text.splitlines()[0].startswith("x")
        assert "DRIFT" in text

    def test_defaults_to_common_columns(self, rng):
        train = self._table(rng)
        serve = Table.from_columns({"x": rng.standard_normal(100)})
        report = detect_drift(train, serve)
        assert [c.name for c in report.columns] == ["x"]
