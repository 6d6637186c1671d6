"""Unit tests for repro.storage.schema."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage import Column, ColumnType, Schema


def _schema(**types: str) -> Schema:
    """A schema of the named columns, in keyword order."""
    return Schema([Column(name, ColumnType(t)) for name, t in types.items()])


class TestColumnType:
    def test_numpy_dtype_mapping(self):
        assert ColumnType.INT.numpy_dtype == np.dtype(np.int64)
        assert ColumnType.FLOAT.numpy_dtype == np.dtype(np.float64)
        assert ColumnType.BOOL.numpy_dtype == np.dtype(np.bool_)
        assert ColumnType.STR.numpy_dtype == np.dtype(object)

    def test_from_numpy_int_variants(self):
        assert ColumnType.from_numpy(np.dtype(np.int32)) == ColumnType.INT
        assert ColumnType.from_numpy(np.dtype(np.uint8)) == ColumnType.INT

    def test_from_numpy_float(self):
        assert ColumnType.from_numpy(np.dtype(np.float32)) == ColumnType.FLOAT

    def test_from_numpy_string_variants(self):
        assert ColumnType.from_numpy(np.dtype("U10")) == ColumnType.STR
        assert ColumnType.from_numpy(np.dtype(object)) == ColumnType.STR

    def test_from_numpy_unsupported_raises(self):
        with pytest.raises(SchemaError):
            ColumnType.from_numpy(np.dtype(np.complex128))


class TestColumn:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", ColumnType.INT)

    def test_equality(self):
        assert Column("a", ColumnType.INT) == Column("a", ColumnType.INT)
        assert Column("a", ColumnType.INT) != Column("a", ColumnType.FLOAT)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Column("a", ColumnType.INT), Column("a", ColumnType.STR)])

    def test_len_and_iteration(self):
        s = _schema(a="int", b="float")
        assert len(s) == 2
        assert [c.name for c in s] == ["a", "b"]

    def test_contains(self):
        s = _schema(a="int")
        assert "a" in s
        assert "z" not in s

    def test_getitem_unknown_raises_with_names(self):
        s = _schema(a="int")
        with pytest.raises(SchemaError, match="no column named 'z'"):
            s["z"]

    def test_position(self):
        s = _schema(a="int", b="float", c="str")
        assert s.position("b") == 1
        with pytest.raises(SchemaError):
            s.position("missing")

    def test_project_preserves_requested_order(self):
        s = _schema(a="int", b="float", c="str")
        p = s.project(["c", "a"])
        assert p.names == ("c", "a")

    def test_project_unknown_raises(self):
        with pytest.raises(SchemaError):
            _schema(a="int").project(["zzz"])

    def test_drop(self):
        s = _schema(a="int", b="float", c="str")
        assert s.drop(["b"]).names == ("a", "c")

    def test_drop_unknown_raises(self):
        with pytest.raises(SchemaError, match="cannot drop"):
            _schema(a="int").drop(["b"])

    def test_equality_and_hash(self):
        s1 = _schema(a="int", b="float")
        s2 = _schema(a="int", b="float")
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert s1 != _schema(b="float", a="int")  # order matters

    def test_repr_mentions_types(self):
        assert "a:int" in repr(_schema(a="int"))
