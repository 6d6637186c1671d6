"""CSV import for tables.

Types are inferred per column (int -> float -> bool -> str fallback).
This exists so examples can load datasets from CSV text the way the
surveyed in-RDBMS systems load data.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from ..errors import StorageError
from .schema import ColumnType
from .table import Table

_TRUE = {"true", "t", "yes", "1"}
_FALSE = {"false", "f", "no", "0"}


def read_csv_string(text: str) -> Table:
    """Load CSV content from a string (header row required)."""
    reader = csv.reader(io.StringIO(text))
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
    return Table.from_columns(
        {name: _infer([row[i] for row in rows]) for i, name in enumerate(header)}
    )


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
