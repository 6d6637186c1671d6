"""Unit tests for the SQL front-end."""

import numpy as np
import pytest

from repro.storage import Catalog, Table, run_sql
from repro.storage.sql import SQLError, parse_sql, tokenize


@pytest.fixture
def catalog(people_table, cities_table):
    c = Catalog()
    c.register("people", people_table)
    c.register("cities", cities_table)
    return c


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "'it''s'"

    def test_numbers(self):
        kinds = [t.kind for t in tokenize("1 2.5 .75")[:-1]]
        assert kinds == ["number", "number", "number"]

    def test_two_char_operators(self):
        values = [t.value for t in tokenize("<= >= <> !=")[:-1]]
        assert values == ["<=", ">=", "<>", "!="]

    def test_unexpected_character(self):
        with pytest.raises(SQLError, match="unexpected character"):
            tokenize("SELECT ;")


class TestParser:
    def test_minimal_query(self):
        q = parse_sql("SELECT * FROM t")
        assert q.star
        assert q.table == "t"

    def test_full_clause_order(self):
        q = parse_sql(
            "SELECT city, COUNT(*) AS n FROM people "
            "WHERE age > 20 GROUP BY city HAVING n > 1 "
            "ORDER BY n DESC LIMIT 2"
        )
        assert q.group_by == ["city"]
        assert q.order_by == ["n"]
        assert q.order_desc
        assert q.limit == 2
        assert q.having is not None

    def test_join_clause(self):
        q = parse_sql("SELECT * FROM a JOIN b ON x = y LEFT JOIN c ON p = q")
        assert len(q.joins) == 2
        assert q.joins[0].how == "inner"
        assert q.joins[1].how == "left"

    def test_missing_from(self):
        with pytest.raises(SQLError, match="expected FROM"):
            parse_sql("SELECT a, b")

    def test_trailing_garbage(self):
        with pytest.raises(SQLError):
            parse_sql("SELECT * FROM t extra stuff ???")

    def test_distinct_flag(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct


class TestExecution:
    def test_select_star(self, catalog, people_table):
        out = run_sql("SELECT * FROM people", catalog)
        assert out == people_table

    def test_projection(self, catalog):
        out = run_sql("SELECT city, age FROM people", catalog)
        assert out.schema.names == ("city", "age")

    def test_computed_column_with_alias(self, catalog):
        out = run_sql(
            "SELECT income * 1000 AS income_full FROM people", catalog
        )
        assert out.column("income_full")[0] == 30000.0

    def test_where_comparison(self, catalog):
        out = run_sql("SELECT id FROM people WHERE age >= 32", catalog)
        assert sorted(out.column("id").tolist()) == [2, 3, 5]

    def test_where_string_literal(self, catalog):
        out = run_sql(
            "SELECT id FROM people WHERE city = 'paris'", catalog
        )
        assert sorted(out.column("id").tolist()) == [1, 3]

    def test_where_boolean_connectives(self, catalog):
        out = run_sql(
            "SELECT id FROM people WHERE city = 'lyon' AND age > 40 "
            "OR id = 1",
            catalog,
        )
        assert sorted(out.column("id").tolist()) == [1, 5]

    def test_where_not_and_parentheses(self, catalog):
        out = run_sql(
            "SELECT id FROM people WHERE NOT (age < 30 OR age > 50)",
            catalog,
        )
        assert sorted(out.column("id").tolist()) == [2, 3]

    def test_where_in_list(self, catalog):
        out = run_sql(
            "SELECT id FROM people WHERE city IN ('nice', 'lyon')", catalog
        )
        assert sorted(out.column("id").tolist()) == [2, 4, 5]

    def test_where_arithmetic(self, catalog):
        out = run_sql(
            "SELECT id FROM people WHERE income / 2 > 20", catalog
        )
        assert sorted(out.column("id").tolist()) == [2, 3, 5]

    def test_is_null_on_left_join(self, catalog, people_table):
        partial = Table.from_columns(
            {"city": ["paris"], "mayor": ["anne"]}
        )
        catalog.register("mayors", partial)
        out = run_sql(
            "SELECT id FROM people LEFT JOIN mayors ON city = city "
            "WHERE mayor IS NULL",
            catalog,
        )
        assert sorted(out.column("id").tolist()) == [2, 4, 5]

    def test_inner_join(self, catalog):
        out = run_sql(
            "SELECT id, region FROM people JOIN cities ON city = city",
            catalog,
        )
        assert out.num_rows == 5
        assert "region" in out.schema

    def test_join_then_aggregate(self, catalog):
        out = run_sql(
            "SELECT region, SUM(income) AS total FROM people "
            "JOIN cities ON city = city GROUP BY region "
            "ORDER BY total DESC",
            catalog,
        )
        rows = [dict(zip(out.schema.names, r)) for r in out.rows()]
        assert rows[0]["region"] == "ara"  # lyon: 45.5 + 75.0
        assert rows[0]["total"] == pytest.approx(120.5)

    def test_group_by_count_star(self, catalog):
        out = run_sql(
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city", catalog
        )
        counts = dict(zip(out.column("city"), out.column("n")))
        assert counts == {"paris": 2, "lyon": 2, "nice": 1}

    def test_group_by_multiple_aggregates(self, catalog):
        out = run_sql(
            "SELECT city, MIN(age) AS lo, MAX(age) AS hi, AVG(income) AS m "
            "FROM people GROUP BY city",
            catalog,
        )
        row = dict(zip(out.schema.names, next(r for r in out.rows() if r[0] == "lyon")))
        assert (row["lo"], row["hi"]) == (32, 60)
        assert row["m"] == pytest.approx(60.25)

    def test_having(self, catalog):
        out = run_sql(
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city "
            "HAVING n > 1",
            catalog,
        )
        assert sorted(out.column("city").tolist()) == ["lyon", "paris"]

    def test_having_without_group_by_rejected(self, catalog):
        # HAVING is only grammatical after GROUP BY; the parser rejects it.
        with pytest.raises(SQLError):
            run_sql("SELECT id FROM people HAVING id > 1", catalog)

    def test_order_by_and_limit(self, catalog):
        out = run_sql(
            "SELECT id, age FROM people ORDER BY age DESC LIMIT 2", catalog
        )
        assert out.column("id").tolist() == [5, 3]

    def test_distinct(self, catalog):
        out = run_sql("SELECT DISTINCT city FROM people", catalog)
        assert out.num_rows == 3

    def test_non_grouped_column_rejected(self, catalog):
        with pytest.raises(SQLError, match="GROUP BY columns"):
            run_sql(
                "SELECT age, COUNT(*) AS n FROM people GROUP BY city",
                catalog,
            )

    def test_unknown_table(self, catalog):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            run_sql("SELECT * FROM nope", catalog)

    def test_count_column_variant(self, catalog):
        out = run_sql(
            "SELECT city, COUNT(id) AS n FROM people GROUP BY city", catalog
        )
        assert dict(zip(out.column("city"), out.column("n")))["paris"] == 2

    def test_negative_literal(self, catalog):
        out = run_sql("SELECT id FROM people WHERE age > -1", catalog)
        assert out.num_rows == 5


class TestFeatureQueryScenario:
    """The kind of feature-extraction SQL an in-DB ML workflow issues."""

    def test_feature_table_build(self, rng):
        catalog = Catalog()
        n = 200
        catalog.register(
            "events",
            Table.from_columns(
                {
                    "user_id": rng.integers(0, 20, n),
                    "amount": np.round(rng.exponential(10, n), 2),
                    "kind": rng.choice(["view", "buy"], n).astype(object),
                }
            ),
        )
        features = run_sql(
            "SELECT user_id, COUNT(*) AS events, AVG(amount) AS avg_amount, "
            "MAX(amount) AS max_amount FROM events "
            "WHERE kind = 'buy' GROUP BY user_id "
            "HAVING events >= 2 ORDER BY user_id",
            catalog,
        )
        assert features.num_rows > 0
        assert features.schema.names == (
            "user_id", "events", "avg_amount", "max_amount",
        )
        assert np.all(features.column("events") >= 2)
        # Feature table flows straight into the ML layer.
        X = features.to_matrix(["events", "avg_amount", "max_amount"])
        assert X.shape[1] == 3
