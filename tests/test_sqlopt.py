"""Unit tests for SQL predicate pushdown."""

import numpy as np
import pytest

from repro.storage import Catalog, Table, col, run_sql
from repro.storage.sql import parse_sql
from repro.storage.sqlopt import (
    conjoin,
    plan_pushdown,
    referenced_columns,
    split_conjuncts,
)


@pytest.fixture
def catalog(rng):
    c = Catalog()
    n = 500
    c.register(
        "orders",
        Table.from_columns(
            {
                "order_id": np.arange(n),
                "cust_id": rng.integers(0, 50, n),
                "amount": np.round(rng.exponential(30, n), 2),
            }
        ),
    )
    c.register(
        "customers",
        Table.from_columns(
            {
                "cust_id": np.arange(50),
                "tier": rng.choice(["gold", "silver"], 50).astype(object),
                "credit": rng.uniform(0, 100, 50),
            }
        ),
    )
    return c


class TestConjunctMachinery:
    def test_split_flattens_nested_ands(self):
        e = (col("a") > 1) & (col("b") < 2) & (col("c") == 3)
        assert len(split_conjuncts(e)) == 3

    def test_split_keeps_or_whole(self):
        e = (col("a") > 1) | (col("b") < 2)
        assert len(split_conjuncts(e)) == 1

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_conjoin_roundtrip(self, people_table):
        e = (col("age") > 25) & (col("income") < 60)
        rebuilt = conjoin(split_conjuncts(e))
        assert np.array_equal(
            e.evaluate(people_table), rebuilt.evaluate(people_table)
        )

    def test_conjoin_empty_is_none(self):
        assert conjoin([]) is None

    def test_referenced_columns(self):
        e = (col("a") + col("b") * 2) > col("c")
        assert referenced_columns(e) == {"a", "b", "c"}
        assert referenced_columns(col("x").isin([1, 2])) == {"x"}


class TestPushdownPlanning:
    def test_base_and_join_predicates_separated(self, catalog):
        query = parse_sql(
            "SELECT order_id FROM orders JOIN customers ON cust_id = cust_id "
            "WHERE amount > 10 AND tier = 'gold'"
        )
        plan = plan_pushdown(
            query.where,
            catalog.get("orders"),
            query.joins,
            [catalog.get("customers")],
        )
        assert len(plan.base_predicates) == 1  # amount > 10
        assert len(plan.join_predicates.get(0, [])) == 1  # tier = 'gold'
        assert plan.residual == []

    def test_ambiguous_column_not_pushed(self, catalog):
        query = parse_sql(
            "SELECT order_id FROM orders JOIN customers ON cust_id = cust_id "
            "WHERE cust_id > 10"
        )
        plan = plan_pushdown(
            query.where,
            catalog.get("orders"),
            query.joins,
            [catalog.get("customers")],
        )
        # cust_id exists in both tables: stays residual.
        assert plan.base_predicates == [] and plan.join_predicates == {}
        assert len(plan.residual) == 1

    def test_left_join_right_side_never_filtered_early(self, catalog):
        query = parse_sql(
            "SELECT order_id FROM orders LEFT JOIN customers "
            "ON cust_id = cust_id WHERE tier = 'gold'"
        )
        plan = plan_pushdown(
            query.where,
            catalog.get("orders"),
            query.joins,
            [catalog.get("customers")],
        )
        assert plan.join_predicates == {}
        assert len(plan.residual) == 1

    def test_cross_table_predicate_stays_residual(self, catalog):
        query = parse_sql(
            "SELECT order_id FROM orders JOIN customers ON cust_id = cust_id "
            "WHERE amount > credit"
        )
        plan = plan_pushdown(
            query.where,
            catalog.get("orders"),
            query.joins,
            [catalog.get("customers")],
        )
        assert plan.base_predicates == [] and plan.join_predicates == {}


class TestSemanticsPreserved:
    QUERIES = [
        "SELECT order_id, amount FROM orders WHERE amount > 20",
        "SELECT order_id FROM orders JOIN customers ON cust_id = cust_id "
        "WHERE amount > 20 AND tier = 'gold'",
        "SELECT order_id FROM orders JOIN customers ON cust_id = cust_id "
        "WHERE amount > credit",
        "SELECT order_id FROM orders LEFT JOIN customers ON cust_id = cust_id "
        "WHERE tier = 'gold' AND amount > 5",
        "SELECT tier, COUNT(*) AS n, AVG(amount) AS m FROM orders "
        "JOIN customers ON cust_id = cust_id "
        "WHERE amount > 10 AND credit > 50 GROUP BY tier ORDER BY tier",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_optimized_equals_unoptimized(self, catalog, query):
        assert run_sql(query, catalog, optimize=True) == run_sql(
            query, catalog, optimize=False
        )
