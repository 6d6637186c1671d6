"""A named-table catalog: the 'database' the in-DB ML layer runs against."""

from __future__ import annotations

from typing import Iterator

from ..errors import StorageError
from .table import Table


class Catalog:
    """A mutable mapping of table names to tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def register(self, name: str, table: Table) -> None:
        """Add a table under ``name``.

        Raises:
            StorageError: if the name exists.
        """
        if name in self._tables:
            raise StorageError(f"table {name!r} already registered")
        self._tables[name] = table

    def get(self, name: str) -> Table:
        if name not in self._tables:
            raise StorageError(
                f"no table named {name!r}; have {sorted(self._tables)}"
            )
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._tables))

    def __len__(self) -> int:
        return len(self._tables)
