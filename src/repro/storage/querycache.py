"""Materialized query results with version-based invalidation.

Feature queries are re-issued constantly during model iteration — the
same GROUP BY mart feeding every hyperparameter trial. A
:class:`QueryCache` memoizes SELECT results keyed by (query text, the
versions of every table it reads); registering new data under a table
name bumps that table's version and invalidates exactly the cached
queries that read it. Tables that mutate in place (a
:class:`~repro.incremental.DynamicTable`) contribute their own mutation
epoch to the key, so a stream of inserts/deletes/updates invalidates
cached queries without any re-registration.
"""

from __future__ import annotations

from ..cache import BoundedCache
from ..errors import StorageError
from ..obs import Ledger
from .catalog import Catalog
from .sql import parse_sql, run_sql
from .table import Table


class VersionedCatalog(Catalog):
    """A catalog that counts mutations per table name."""

    def __init__(self) -> None:
        super().__init__()
        self._versions: dict[str, int] = {}

    def register(self, name: str, table: Table, replace: bool = False) -> None:
        super().register(name, table, replace)
        self._versions[name] = self._versions.get(name, 0) + 1

    def drop(self, name: str) -> None:
        super().drop(name)
        self._versions[name] = self._versions.get(name, 0) + 1

    def version(self, name: str) -> int:
        """Mutation counter for a table name (0 if never registered)."""
        return self._versions.get(name, 0)


class QueryCache:
    """LRU cache of SELECT results over a :class:`VersionedCatalog`."""

    def __init__(self, catalog: VersionedCatalog, capacity: int = 64):
        if not isinstance(catalog, VersionedCatalog):
            raise StorageError("QueryCache requires a VersionedCatalog")
        if capacity < 1:
            raise StorageError("capacity must be >= 1")
        self.catalog = catalog
        self.capacity = capacity
        self.stats = Ledger(
            "querycache", ("hits", "misses", "invalidations", "evictions")
        )
        # query text -> (table versions it was computed at, result)
        self._entries = BoundedCache(capacity, self.stats)

    def _table_versions(self, text: str) -> tuple:
        query = parse_sql(text)
        names = [query.table] + [j.table for j in query.joins]
        return tuple(
            (name, self.catalog.version(name), self._table_epoch(name))
            for name in sorted(set(names))
        )

    def _table_epoch(self, name: str) -> int:
        """Mutation epoch of the registered table object itself.

        The catalog version only moves on register/drop; a
        :class:`~repro.incremental.DynamicTable` mutates *in place* and
        bumps its own ``version``. Folding that epoch into the cache key
        means an insert/delete/update can never leave a stale cached
        result servable.
        """
        if name not in self.catalog:
            return 0
        return int(getattr(self.catalog.get(name), "version", 0))

    def run(self, text: str) -> Table:
        """Execute a SELECT, serving an identical-version repeat from cache."""
        versions = self._table_versions(text)
        cached = self._entries.get(text)
        if cached is not None:
            cached_versions, result = cached
            if cached_versions == versions:
                self.stats.inc("hits")
                return result
            # A referenced table changed: drop the stale entry.
            self._entries.remove(text)
            self.stats.inc("invalidations")
        self.stats.inc("misses")
        result = run_sql(text, self.catalog)
        self._entries.put(text, (versions, result))
        return result

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
