"""Schemas for the column-store relational substrate.

A :class:`Schema` is an ordered collection of named, typed columns. It is
immutable: every transformation returns a new ``Schema``. Types are
deliberately small — the four types cover everything the in-database ML
layer (``repro.indb``) needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..errors import SchemaError


class ColumnType(enum.Enum):
    """Logical column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to store values of this logical type."""
        return _NUMPY_DTYPES[self]

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "ColumnType":
        """Infer the logical type for a numpy dtype.

        Raises:
            SchemaError: if the dtype has no logical equivalent.
        """
        kind = np.dtype(dtype).kind
        if kind in "iu":
            return cls.INT
        if kind == "f":
            return cls.FLOAT
        if kind == "b":
            return cls.BOOL
        if kind in "UOS":
            return cls.STR
        raise SchemaError(f"unsupported numpy dtype {dtype!r}")


_NUMPY_DTYPES = {
    ColumnType.INT: np.dtype(np.int64),
    ColumnType.FLOAT: np.dtype(np.float64),
    ColumnType.STR: np.dtype(object),
    ColumnType.BOOL: np.dtype(np.bool_),
}


@dataclass(frozen=True)
class Column:
    """A named, typed column in a schema."""

    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")


class Schema:
    """An ordered, immutable list of :class:`Column` with unique names."""

    def __init__(self, columns: Iterable[Column]):
        self._columns = tuple(columns)
        names = [c.name for c in self._columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        self._index = {c.name: i for i, c in enumerate(self._columns)}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._columns)

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Column:
        try:
            return self._columns[self._index[name]]
        except KeyError:
            raise SchemaError(f"no column named {name!r}; have {self.names}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}:{c.ctype.value}" for c in self._columns)
        return f"Schema({inner})"

    def position(self, name: str) -> int:
        """Ordinal position of a column."""
        if name not in self._index:
            raise SchemaError(f"no column named {name!r}; have {self.names}")
        return self._index[name]

    def type_of(self, name: str) -> ColumnType:
        return self[name].ctype

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema restricted to ``names`` (in the given order)."""
        return Schema([self[n] for n in names])

    def drop(self, names: Iterable[str]) -> "Schema":
        """Schema without the given columns."""
        dropped = set(names)
        missing = dropped - set(self.names)
        if missing:
            raise SchemaError(f"cannot drop unknown columns {sorted(missing)}")
        return Schema([c for c in self._columns if c.name not in dropped])
