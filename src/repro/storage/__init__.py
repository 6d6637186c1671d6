"""Column-store relational substrate.

The in-RDBMS ML techniques the tutorial surveys (MADlib, Bismarck) run
*inside* a database engine; this package is that engine for the
reproduction: typed schemas, numpy-backed column-store tables, vectorized
expressions, and the classic operators (filter, project, hash join,
group-by with aggregates).
"""

from .aggregates import AggregateFunction, AggSpec, agg
from .catalog import Catalog
from .csvio import read_csv, read_csv_string, write_csv
from .expressions import Expr, col, lit
from .lineage import (
    materialized_operator,
    operator_fingerprint,
    table_fingerprint,
)
from .operators import (
    aggregate,
    distinct,
    extend,
    filter_rows,
    group_by,
    hash_join,
    limit,
    order_by,
    project,
    union_all,
)
from .schema import Column, ColumnType, Schema
from .sql import SQLError, explain_sql, parse_sql, run_sql
from .stats import (
    NumericHistogram,
    TableStats,
    estimate_rows,
    estimate_selectivity,
)
from .table import Table

__all__ = [
    "AggSpec",
    "AggregateFunction",
    "Catalog",
    "Column",
    "ColumnType",
    "Expr",
    "NumericHistogram",
    "Schema",
    "TableStats",
    "Table",
    "agg",
    "aggregate",
    "col",
    "distinct",
    "estimate_rows",
    "estimate_selectivity",
    "extend",
    "filter_rows",
    "group_by",
    "hash_join",
    "limit",
    "lit",
    "explain_sql",
    "order_by",
    "parse_sql",
    "project",
    "read_csv",
    "read_csv_string",
    "run_sql",
    "SQLError",
    "materialized_operator",
    "operator_fingerprint",
    "table_fingerprint",
    "union_all",
    "write_csv",
]
