"""Property-based tests: relational operators vs brute-force references.

Random small tables are generated with hypothesis and every operator's
output is checked against a straightforward pure-Python evaluation —
the oracle pattern for query-engine testing.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Table, agg, col, distinct, filter_rows, group_by, hash_join, order_by

# Small value domains make joins and group-bys collide often.
keys = st.integers(0, 4)
values = st.floats(-100, 100, allow_nan=False, width=32)


@st.composite
def tables(draw, min_rows=0, max_rows=25):
    n = draw(st.integers(min_rows, max_rows))
    k = draw(st.lists(keys, min_size=n, max_size=n))
    v = draw(st.lists(values, min_size=n, max_size=n))
    return Table.from_columns(
        {"k": np.asarray(k, dtype=np.int64), "v": np.asarray(v, dtype=np.float64)}
    )


class TestFilterProperties:
    @given(t=tables(), threshold=values)
    @settings(max_examples=50, deadline=None)
    def test_filter_matches_row_scan(self, t, threshold):
        out = filter_rows(t, col("v") > threshold)
        expected = [row for row in t.rows() if row[1] > threshold]
        assert list(out.rows()) == expected

    @given(t=tables())
    @settings(max_examples=30, deadline=None)
    def test_filter_complement_partitions_rows(self, t):
        yes = filter_rows(t, col("k") >= 2)
        no = filter_rows(t, ~(col("k") >= 2))
        assert yes.num_rows + no.num_rows == t.num_rows


class TestGroupByProperties:
    @given(t=tables(min_rows=1))
    @settings(max_examples=50, deadline=None)
    def test_sum_count_match_dict_aggregation(self, t):
        out = group_by(t, ["k"], [agg("sum", "v"), agg("count")])
        expected_sum = defaultdict(float)
        expected_count = defaultdict(int)
        for k, v in t.rows():
            expected_sum[k] += v
            expected_count[k] += 1
        assert out.num_rows == len(expected_sum)
        for row in (dict(zip(out.schema.names, r)) for r in out.rows()):
            assert row["sum_v"] == pytest.approx(
                expected_sum[row["k"]], rel=1e-9, abs=1e-9
            )
            assert row["count"] == expected_count[row["k"]]

    @given(t=tables(min_rows=1))
    @settings(max_examples=30, deadline=None)
    def test_min_max_bound_all_members(self, t):
        out = group_by(t, ["k"], [agg("min", "v"), agg("max", "v")])
        bounds = {k: (lo, hi) for k, lo, hi in out.rows()}
        for k, v in t.rows():
            lo, hi = bounds[k]
            assert lo <= v <= hi

    @given(t=tables(min_rows=1))
    @settings(max_examples=30, deadline=None)
    def test_group_counts_sum_to_table_size(self, t):
        out = group_by(t, ["k"], [agg("count")])
        assert out.column("count").sum() == t.num_rows


class TestJoinProperties:
    @given(left=tables(max_rows=15), right=tables(max_rows=15))
    @settings(max_examples=50, deadline=None)
    def test_inner_join_matches_nested_loop(self, left, right):
        out = hash_join(left, Table.from_columns({"k": right.column("k"), "w": right.column("v")}), on="k")
        expected = sorted(
            (lk, lv, rw)
            for lk, lv in left.rows()
            for rk, rw in right.rows()
            if lk == rk
        )
        got = sorted(out.rows())
        assert got == expected

    @given(left=tables(max_rows=15), right=tables(max_rows=15))
    @settings(max_examples=30, deadline=None)
    def test_left_join_preserves_every_left_row(self, left, right):
        out = hash_join(left, Table.from_columns({"k": right.column("k"), "w": right.column("v")}), on="k", how="left")
        right_keys = set(right.column("k").tolist())
        expected_rows = sum(
            max(1, right.column("k").tolist().count(k))
            if k in right_keys
            else 1
            for k in left.column("k")
        )
        assert out.num_rows == expected_rows


class TestOrderDistinctProperties:
    @given(t=tables())
    @settings(max_examples=30, deadline=None)
    def test_order_by_sorts(self, t):
        out = order_by(t, ["v"])
        vs = out.column("v")
        assert np.all(np.diff(vs) >= 0)
        assert sorted(t.column("v").tolist()) == vs.tolist()

    @given(t=tables())
    @settings(max_examples=30, deadline=None)
    def test_distinct_is_idempotent_and_unique(self, t):
        once = distinct(t)
        twice = distinct(once)
        assert once == twice
        rows = list(once.rows())
        assert len(set(rows)) == len(rows)
        assert set(rows) == set(t.rows())


class TestSQLAgainstOperators:
    @given(t=tables(min_rows=1))
    @settings(max_examples=30, deadline=None)
    def test_sql_group_by_equals_operator_api(self, t):
        from repro.storage import Catalog, run_sql

        catalog = Catalog()
        catalog.register("t", t)
        via_sql = run_sql(
            "SELECT k, SUM(v) AS sum_v, COUNT(*) AS count FROM t GROUP BY k",
            catalog,
        )
        via_api = group_by(t, ["k"], [agg("sum", "v"), agg("count")])
        assert via_sql == via_api
