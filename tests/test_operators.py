"""Unit tests for repro.storage.operators."""

import numpy as np
import pytest

from repro.errors import SchemaError, StorageError
from repro.storage import (
    Table,
    agg,
    aggregate,
    col,
    distinct,
    extend,
    filter_rows,
    group_by,
    hash_join,
    limit,
    order_by,
    project,
)


def _dicts(table):
    """Rows as name -> value dicts (the slow path assertions read)."""
    return [dict(zip(table.schema.names, row)) for row in table.rows()]


class TestFilterProjectExtend:
    def test_filter(self, people_table):
        t = filter_rows(people_table, col("age") > 30)
        assert t.num_rows == 3

    def test_filter_none_match(self, people_table):
        t = filter_rows(people_table, col("age") > 1000)
        assert t.num_rows == 0
        assert t.schema == people_table.schema

    def test_project(self, people_table):
        t = project(people_table, ["city"])
        assert t.schema.names == ("city",)

    def test_extend(self, people_table):
        t = extend(people_table, "income_k", col("income") * 1000)
        assert t.column("income_k")[0] == 30000.0


class TestOrderLimitUnionDistinct:
    def test_order_by_single_key(self, people_table):
        t = order_by(people_table, ["age"])
        assert list(t.column("age")) == [25, 25, 32, 41, 60]

    def test_order_by_descending(self, people_table):
        t = order_by(people_table, ["age"], descending=True)
        assert t.column("age")[0] == 60

    def test_order_by_multiple_keys(self, people_table):
        t = order_by(people_table, ["age", "id"])
        first_two = [r["id"] for r in _dicts(t.head(2))]
        assert first_two == [1, 4]  # both age 25, ordered by id

    def test_order_by_string_key(self, people_table):
        t = order_by(people_table, ["city"])
        assert t.column("city")[0] == "lyon"

    def test_order_by_requires_keys(self, people_table):
        with pytest.raises(StorageError):
            order_by(people_table, [])

    def test_limit(self, people_table):
        assert limit(people_table, 3).num_rows == 3

    def test_distinct_full_row(self):
        t = Table.from_columns({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert distinct(t).num_rows == 2


class TestHashJoin:
    def test_inner_join(self, people_table, cities_table):
        t = hash_join(people_table, cities_table, on="city")
        assert t.num_rows == 5
        assert "region" in t.schema
        paris = [r for r in _dicts(t) if r["city"] == "paris"]
        assert all(r["region"] == "idf" for r in paris)

    def test_inner_join_drops_unmatched(self, people_table, cities_table):
        cities = filter_rows(cities_table, col("city") != "nice")
        t = hash_join(people_table, cities, on="city")
        assert t.num_rows == 4

    def test_left_join_pads(self, people_table, cities_table):
        cities = filter_rows(cities_table, col("city") != "nice")
        t = hash_join(people_table, cities, on="city", how="left")
        assert t.num_rows == 5
        nice = [r for r in _dicts(t) if r["city"] == "nice"][0]
        assert nice["region"] is None
        assert nice["population"] == 0

    def test_join_different_key_names(self, people_table, cities_table):
        renamed = Table.from_columns(
            {"town" if n == "city" else n: c for n, c in cities_table.columns().items()}
        )
        t = hash_join(people_table, renamed, on="city", right_on="town")
        assert t.num_rows == 5

    def test_join_key_arity_mismatch(self, people_table, cities_table):
        with pytest.raises(StorageError):
            hash_join(people_table, cities_table, on=["city", "id"], right_on="city")

    def test_join_one_to_many_duplicates_left(self):
        left = Table.from_columns({"k": [1], "v": ["a"]})
        right = Table.from_columns({"k": [1, 1, 1], "w": [10, 20, 30]})
        t = hash_join(left, right, on="k")
        assert t.num_rows == 3
        assert sorted(t.column("w").tolist()) == [10, 20, 30]

    def test_join_name_collision_prefixed(self):
        left = Table.from_columns({"k": [1], "v": [1.0]})
        right = Table.from_columns({"k": [1], "v": [2.0]})
        t = hash_join(left, right, on="k")
        assert "right_v" in t.schema
        assert t.column("v")[0] == 1.0
        assert t.column("right_v")[0] == 2.0

    def test_join_multi_column_key(self):
        left = Table.from_columns({"a": [1, 1, 2], "b": ["x", "y", "x"], "v": [1, 2, 3]})
        right = Table.from_columns({"a": [1, 2], "b": ["x", "x"], "w": [10, 20]})
        t = hash_join(left, right, on=["a", "b"])
        assert t.num_rows == 2
        assert sorted(t.column("w").tolist()) == [10, 20]

    def test_unsupported_join_type(self, people_table, cities_table):
        with pytest.raises(StorageError):
            hash_join(people_table, cities_table, on="city", how="full")


class TestGroupBy:
    def test_group_count(self, people_table):
        t = group_by(people_table, ["city"], [agg("count")])
        counts = dict(zip(t.column("city"), t.column("count")))
        assert counts == {"paris": 2, "lyon": 2, "nice": 1}

    def test_group_mean(self, people_table):
        t = group_by(people_table, ["city"], [agg("mean", "income")])
        means = dict(zip(t.column("city"), t.column("mean_income")))
        assert means["paris"] == pytest.approx(41.0)

    def test_group_min_max(self, people_table):
        t = group_by(
            people_table, ["city"], [agg("min", "age"), agg("max", "age")]
        )
        row = [r for r in _dicts(t) if r["city"] == "lyon"][0]
        assert (row["min_age"], row["max_age"]) == (32, 60)

    def test_group_preserves_first_occurrence_order(self, people_table):
        t = group_by(people_table, ["city"], [agg("count")])
        assert list(t.column("city")) == ["paris", "lyon", "nice"]

    def test_group_by_multiple_keys(self):
        t = Table.from_columns(
            {"a": [1, 1, 2, 2], "b": ["x", "x", "x", "y"], "v": [1.0, 2.0, 3.0, 4.0]}
        )
        g = group_by(t, ["a", "b"], [agg("sum", "v")])
        assert g.num_rows == 3

    def test_custom_output_name(self, people_table):
        t = group_by(people_table, ["city"], [agg("sum", "income", output="total")])
        assert "total" in t.schema

    def test_duplicate_output_rejected(self, people_table):
        with pytest.raises(SchemaError):
            group_by(
                people_table,
                ["city"],
                [agg("sum", "income", output="x"), agg("mean", "income", output="x")],
            )

    def test_output_colliding_with_key_rejected(self, people_table):
        with pytest.raises(SchemaError):
            group_by(people_table, ["city"], [agg("count", output="city")])

    def test_requires_aggregates(self, people_table):
        with pytest.raises(StorageError):
            group_by(people_table, ["city"], [])

    def test_full_table_aggregate(self, people_table):
        t = aggregate(people_table, [agg("count"), agg("mean", "age")])
        assert t.num_rows == 1
        assert t.column("count")[0] == 5
        assert t.column("mean_age")[0] == pytest.approx(36.6)

    def test_group_var_std(self):
        t = Table.from_columns({"g": ["a"] * 4, "v": [1.0, 2.0, 3.0, 4.0]})
        g = group_by(t, ["g"], [agg("var", "v"), agg("std", "v")])
        assert g.column("var_v")[0] == pytest.approx(np.var([1, 2, 3, 4]))
        assert g.column("std_v")[0] == pytest.approx(np.std([1, 2, 3, 4]))

    def test_group_first(self, people_table):
        t = group_by(people_table, ["city"], [agg("first", "id")])
        firsts = dict(zip(t.column("city"), t.column("first_id")))
        assert firsts == {"paris": 1, "lyon": 2, "nice": 4}

    def test_min_max_on_strings(self):
        t = Table.from_columns({"g": ["a", "a", "b"], "s": ["z", "m", "q"]})
        g = group_by(t, ["g"], [agg("min", "s"), agg("max", "s")])
        row = _dicts(g)[0]
        assert (row["min_s"], row["max_s"]) == ("m", "z")
