"""Unit tests for repro.storage.csvio."""

import pytest

from repro.errors import StorageError
from repro.storage import ColumnType, read_csv_string


class TestReadInference:
    def test_infer_int_float_str(self):
        t = read_csv_string("id,score,name\n1,2.5,alice\n2,3.5,bob\n")
        assert t.schema.type_of("id") == ColumnType.INT
        assert t.schema.type_of("score") == ColumnType.FLOAT
        assert t.schema.type_of("name") == ColumnType.STR
        assert t.num_rows == 2

    def test_infer_bool(self):
        t = read_csv_string("flag\ntrue\nfalse\nyes\n")
        assert t.schema.type_of("flag") == ColumnType.BOOL
        assert t.column("flag").tolist() == [True, False, True]

    def test_numeric_zero_one_prefers_int_over_bool(self):
        t = read_csv_string("x\n0\n1\n")
        assert t.schema.type_of("x") == ColumnType.INT

    def test_mixed_falls_back_to_str(self):
        t = read_csv_string("x\n1\nhello\n")
        assert t.schema.type_of("x") == ColumnType.STR

    def test_empty_input_raises(self):
        with pytest.raises(StorageError, match="empty"):
            read_csv_string("")

    def test_ragged_row_raises(self):
        with pytest.raises(StorageError, match="ragged"):
            read_csv_string("a,b\n1,2\n3\n")

    def test_header_only_gives_empty_table(self):
        t = read_csv_string("a,b\n")
        assert t.num_rows == 0
