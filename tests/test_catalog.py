"""Unit tests for repro.storage.catalog."""

import pytest

from repro.errors import StorageError
from repro.storage import Catalog


@pytest.fixture
def catalog(people_table):
    c = Catalog()
    c.register("people", people_table)
    return c


class TestCatalog:
    def test_register_and_get(self, catalog, people_table):
        assert catalog.get("people") is people_table

    def test_register_duplicate_raises(self, catalog, people_table):
        with pytest.raises(StorageError, match="already registered"):
            catalog.register("people", people_table)

    def test_get_unknown_lists_names(self, catalog):
        with pytest.raises(StorageError, match="people"):
            catalog.get("missing")

    def test_contains_len_iter(self, catalog, people_table):
        catalog.register("b_table", people_table)
        catalog.register("a_table", people_table)
        assert len(catalog) == 3
        assert list(catalog) == ["a_table", "b_table", "people"]
