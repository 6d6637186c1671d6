"""Unit tests for data profiling."""

import pytest

from repro.feateng import (
    profile_column,
    profile_table,
    training_data_report,
)
from repro.storage import Table


@pytest.fixture
def table():
    return Table.from_columns(
        {
            "age": [20, 30, 30, 40, 50],
            "score": [1.0, 2.0, float("nan"), 4.0, 5.0],
            "city": ["paris", "paris", None, "lyon", "paris"],
            "constant": [7, 7, 7, 7, 7],
        }
    )


class TestProfiles:
    def test_numeric_profile(self, table):
        p = profile_column(table, "age")
        assert p.count == 5
        assert p.missing == 0
        assert p.distinct == 4
        assert p.minimum == 20
        assert p.maximum == 50
        assert p.mean == pytest.approx(34.0)
        assert p.top_value == 30
        assert p.top_count == 2

    def test_nan_counts_as_missing(self, table):
        p = profile_column(table, "score")
        assert p.missing == 1
        assert p.missing_fraction == pytest.approx(0.2)
        # Moments computed over present values only.
        assert p.mean == pytest.approx(3.0)

    def test_none_counts_as_missing_for_strings(self, table):
        p = profile_column(table, "city")
        assert p.missing == 1
        assert p.distinct == 2
        assert p.top_value == "paris"
        assert p.minimum is None  # no numeric stats for strings

    def test_constant_flag(self, table):
        assert profile_column(table, "constant").is_constant
        assert not profile_column(table, "age").is_constant

    def test_profile_table_covers_all_columns(self, table):
        profiles = profile_table(table)
        assert [p.name for p in profiles] == list(table.schema.names)

    def test_describe_is_readable(self, table):
        text = profile_column(table, "age").describe()
        assert "age" in text and "distinct=4" in text


class TestReport:
    def test_flags_hazards(self, table):
        report = training_data_report(table)
        assert "MISSING" in report
        assert "CONSTANT" in report

    def test_label_balance_warning(self):
        t = Table.from_columns({"y": [0] * 95 + [1] * 5, "x": list(range(100))})
        report = training_data_report(t, label_column="y")
        assert "minority class" in report
        assert "0=95.0%" in report

    def test_balanced_labels_no_warning(self):
        t = Table.from_columns({"y": [0, 1] * 50, "x": list(range(100))})
        report = training_data_report(t, label_column="y")
        assert "minority" not in report

    def test_high_cardinality_flag(self):
        t = Table.from_columns({"id": [f"u{i}" for i in range(100)]})
        assert "HIGH-CARDINALITY" in training_data_report(t)
