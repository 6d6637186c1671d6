"""Unit tests for repro.storage.table."""

import numpy as np
import pytest

from repro.errors import SchemaError, StorageError
from repro.storage import ColumnType, Schema, Table


class TestConstruction:
    def test_from_columns_infers_types(self, people_table):
        s = people_table.schema
        assert s.type_of("id") == ColumnType.INT
        assert s.type_of("income") == ColumnType.FLOAT
        assert s.type_of("city") == ColumnType.STR

    def test_from_columns_bool(self):
        t = Table.from_columns({"flag": [True, False]})
        assert t.schema.type_of("flag") == ColumnType.BOOL

    def test_empty(self):
        t = Table.empty(Schema.of(x="float"))
        assert t.num_rows == 0
        assert len(t.column("x")) == 0

    def test_ragged_columns_rejected(self):
        schema = Schema.of(a="int", b="int")
        with pytest.raises(SchemaError, match="ragged"):
            Table(schema, [np.array([1, 2]), np.array([1])])

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema.of(a="int"), [np.array([1]), np.array([2])])

    def test_2d_column_values_rejected(self):
        with pytest.raises(StorageError, match="1-D"):
            Table.from_columns({"a": np.ones((2, 2))})


class TestAccess:
    def test_row_out_of_range(self, people_table):
        with pytest.raises(StorageError):
            people_table.row(99)

    def test_rows_iteration(self, people_table):
        rows = list(people_table.rows())
        assert len(rows) == 5
        assert rows[0][0] == 1

    def test_head(self, people_table):
        assert people_table.head(2).num_rows == 2
        assert people_table.head(100).num_rows == 5

    def test_len(self, people_table):
        assert len(people_table) == 5

    def test_equality(self, people_table):
        other = Table.from_columns(people_table.columns())
        assert people_table == other
        assert people_table != other.head(3)


class TestTransforms:
    def test_take_repeats_and_reorders(self, people_table):
        t = people_table.take(np.array([2, 0, 0]))
        assert list(t.column("id")) == [3, 1, 1]

    def test_mask(self, people_table):
        t = people_table.mask(people_table.column("age") > 30)
        assert set(t.column("id").tolist()) == {2, 3, 5}

    def test_mask_length_mismatch(self, people_table):
        with pytest.raises(StorageError):
            people_table.mask(np.array([True]))

    def test_select(self, people_table):
        t = people_table.select(["city", "id"])
        assert t.schema.names == ("city", "id")

    def test_drop(self, people_table):
        t = people_table.drop(["age", "income"])
        assert t.schema.names == ("id", "city")

    def test_with_column_appends(self, people_table):
        t = people_table.with_column("double_age", people_table.column("age") * 2)
        assert t.num_columns == 5
        assert t.column("double_age")[0] == 50

    def test_with_column_replaces(self, people_table):
        t = people_table.with_column("age", np.zeros(5))
        assert t.schema.type_of("age") == ColumnType.FLOAT
        assert t.column("age").sum() == 0.0
        assert t.num_columns == 4

    def test_with_column_length_mismatch(self, people_table):
        with pytest.raises(StorageError):
            people_table.with_column("x", [1, 2])


class TestToMatrix:
    def test_numeric_columns_only_by_default(self, people_table):
        m = people_table.to_matrix()
        assert m.shape == (5, 3)  # id, age, income (city excluded)

    def test_explicit_columns(self, people_table):
        m = people_table.to_matrix(["age", "income"])
        assert m.shape == (5, 2)
        assert m.dtype == np.float64

    def test_string_column_rejected(self, people_table):
        with pytest.raises(StorageError, match="not numeric"):
            people_table.to_matrix(["city"])

    def test_bool_columns_become_float(self):
        t = Table.from_columns({"f": [True, False, True]})
        m = t.to_matrix()
        assert m.tolist() == [[1.0], [0.0], [1.0]]

    def test_no_numeric_columns(self):
        t = Table.from_columns({"s": ["a", "b"]})
        assert t.to_matrix().shape == (2, 0)
