"""CSV import/export for tables.

Types are inferred per column (int -> float -> bool -> str fallback) unless
a schema is supplied. This exists so examples and benchmarks can round-trip
datasets through files the way the surveyed in-RDBMS systems load data.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import StorageError
from .schema import ColumnType, Schema
from .table import Table

_TRUE = {"true", "t", "yes", "1"}
_FALSE = {"false", "f", "no", "0"}


def read_csv(path: str | Path) -> Table:
    """Load a CSV file (header row required) into a table, column types
    inferred."""
    with open(path, newline="") as f:
        return _read(f, None)


def read_csv_string(text: str, schema: Schema | None = None) -> Table:
    """Load CSV content from a string (header row required)."""
    return _read(io.StringIO(text), schema)


def write_csv(table: Table, path: str | Path) -> None:
    """Write a table to a CSV file with a header row."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(table.schema.names)
        writer.writerows(table.rows())


def _read(f, schema: Schema | None) -> Table:
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise StorageError("CSV input is empty (expected a header row)") from None
    rows = list(reader)
    for row in rows:
        if len(row) != len(header):
            raise StorageError(
                f"ragged CSV row: expected {len(header)} fields, got {len(row)}"
            )
    columns = [[row[i] for row in rows] for i in range(len(header))]

    if schema is not None:
        if list(schema.names) != header:
            raise StorageError(
                f"CSV header {header} does not match schema {list(schema.names)}"
            )
        arrays = [
            _coerce(values, schema.type_of(name))
            for name, values in zip(header, columns)
        ]
        return Table(schema, arrays)

    data = {name: _infer(values) for name, values in zip(header, columns)}
    return Table.from_columns(data)


def _coerce(values: Sequence[str], ctype: ColumnType) -> np.ndarray:
    try:
        if ctype == ColumnType.INT:
            return np.array([int(v) for v in values], dtype=np.int64)
        if ctype == ColumnType.FLOAT:
            return np.array([float(v) for v in values], dtype=np.float64)
        if ctype == ColumnType.BOOL:
            return np.array([_parse_bool(v) for v in values], dtype=bool)
        return np.array(list(values), dtype=object)
    except ValueError as exc:
        raise StorageError(f"cannot parse column as {ctype.value}: {exc}") from exc


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _infer(values: Sequence[str]) -> np.ndarray:
    for ctype in (ColumnType.INT, ColumnType.FLOAT, ColumnType.BOOL):
        try:
            return _coerce(values, ctype)
        except StorageError:
            continue
    return np.array(list(values), dtype=object)
