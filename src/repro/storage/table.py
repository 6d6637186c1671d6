"""Column-store tables backed by numpy arrays.

A :class:`Table` stores each column as a contiguous numpy array. Tables are
logically immutable: operators in :mod:`repro.storage.operators` return new
tables that share column arrays where possible (copy-on-write discipline is
the caller's responsibility; the engine itself never mutates a column it
did not allocate).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..errors import SchemaError, StorageError
from .schema import Column, ColumnType, Schema


class Table:
    """An immutable column-store relation."""

    def __init__(self, schema: Schema, columns: Sequence[np.ndarray]):
        if len(columns) != len(schema):
            raise SchemaError(
                f"schema has {len(schema)} columns but {len(columns)} arrays given"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._schema = schema
        self._columns = [np.asarray(c) for c in columns]
        self._nrows = len(self._columns[0]) if self._columns else 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, data: Mapping[str, Sequence[Any]]) -> "Table":
        """Build a table from a name -> values mapping, inferring types.

        >>> t = Table.from_columns({"id": [1, 2], "name": ["a", "b"]})
        """
        cols: list[Column] = []
        arrays: list[np.ndarray] = []
        for name, values in data.items():
            arr = _as_column_array(values)
            cols.append(Column(name, ColumnType.from_numpy(arr.dtype)))
            arrays.append(arr)
        return cls(Schema(cols), arrays)

    @classmethod
    def from_matrix(
        cls, X: np.ndarray, label: np.ndarray | None = None
    ) -> "Table":
        """Build a table from a numeric (n, d) matrix.

        Columns are named f0..f{d-1}; an optional label vector is
        appended as ``"label"``. The bridge from the linear-algebra world
        back into the relational engine.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise StorageError(f"expected a 2-D matrix, got {X.ndim}-D")
        data = {f"f{j}": X[:, j] for j in range(X.shape[1])}
        if label is not None:
            label = np.asarray(label)
            if len(label) != len(X):
                raise StorageError(
                    f"label length {len(label)} != matrix rows {len(X)}"
                )
            data["label"] = label
        return cls.from_columns(data)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._nrows

    @property
    def num_columns(self) -> int:
        return len(self._schema)

    def column(self, name: str) -> np.ndarray:
        """The backing array of a column. Treat as read-only."""
        return self._columns[self._schema.position(name)]

    def columns(self) -> dict[str, np.ndarray]:
        """All columns as a name -> array mapping."""
        return {c.name: arr for c, arr in zip(self._schema, self._columns)}

    def rows(self) -> Iterator[tuple]:
        """Iterate over rows as tuples (slow path)."""
        for i in range(self._nrows):
            yield tuple(col[i] for col in self._columns)

    def __len__(self) -> int:
        return self._nrows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or self._nrows != other._nrows:
            return False
        return all(
            np.array_equal(a, b) for a, b in zip(self._columns, other._columns)
        )

    def head(self, n: int = 5) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(min(n, self._nrows)))

    # ------------------------------------------------------------------
    # Structural transforms (all return new tables)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Rows at the given positions, in order (may repeat)."""
        return Table(self._schema, [col[indices] for col in self._columns])

    def mask(self, keep: np.ndarray) -> "Table":
        """Rows where the boolean mask is true."""
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != self._nrows:
            raise StorageError(
                f"mask length {len(keep)} != table length {self._nrows}"
            )
        return Table(self._schema, [col[keep] for col in self._columns])

    def select(self, names: Sequence[str]) -> "Table":
        """Projection onto the named columns, in the given order."""
        schema = self._schema.project(names)
        arrays = [self.column(n) for n in names]
        return Table(schema, arrays)

    def drop(self, names: Sequence[str]) -> "Table":
        """Table without the named columns."""
        schema = self._schema.drop(names)
        return self.select(schema.names)

    def with_column(self, name: str, values: Sequence[Any]) -> "Table":
        """Table with a column appended (or replaced if the name exists)."""
        arr = _as_column_array(values)
        if len(arr) != self._nrows:
            raise StorageError(
                f"new column length {len(arr)} != table length {self._nrows}"
            )
        col = Column(name, ColumnType.from_numpy(arr.dtype))
        if name in self._schema:
            pos = self._schema.position(name)
            new_cols = list(self._schema.columns)
            new_cols[pos] = col
            arrays = list(self._columns)
            arrays[pos] = arr
            return Table(Schema(new_cols), arrays)
        return Table(
            Schema(list(self._schema.columns) + [col]),
            list(self._columns) + [arr],
        )

    # ------------------------------------------------------------------
    # Numeric bridge to the linear-algebra layer
    # ------------------------------------------------------------------
    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Numeric columns stacked into a float64 (n, d) matrix.

        Raises:
            StorageError: if a requested column is not numeric.
        """
        names = list(names) if names is not None else [
            c.name
            for c in self._schema
            if c.ctype in (ColumnType.INT, ColumnType.FLOAT, ColumnType.BOOL)
        ]
        for n in names:
            if self._schema.type_of(n) == ColumnType.STR:
                raise StorageError(f"column {n!r} is not numeric")
        if not names:
            return np.empty((self._nrows, 0))
        return np.column_stack(
            [self.column(n).astype(np.float64) for n in names]
        )


def _as_column_array(values: Sequence[Any]) -> np.ndarray:
    """Coerce a value sequence to a storable numpy array."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise StorageError(f"column values must be 1-D, got shape {arr.shape}")
    kind = arr.dtype.kind
    if kind in "iu":
        return arr.astype(np.int64)
    if kind == "f":
        return arr.astype(np.float64)
    if kind == "b":
        return arr.astype(np.bool_)
    if kind in "USO":
        return np.array([None if v is None else str(v) for v in arr], dtype=object)
    raise StorageError(f"unsupported column dtype {arr.dtype!r}")
