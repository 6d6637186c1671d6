"""Column-store relational substrate.

The in-RDBMS ML techniques the tutorial surveys (MADlib, Bismarck) run
*inside* a database engine; this package is that engine for the
reproduction: typed schemas, numpy-backed column-store tables, vectorized
expressions, and the classic operators (filter, project, hash join,
group-by with aggregates).
"""

from .aggregates import AggregateFunction, AggSpec, agg
from .catalog import Catalog
from .csvio import read_csv_string
from .expressions import Expr, col, lit
from .lineage import table_fingerprint
from .operators import distinct, filter_rows, group_by, hash_join, order_by
from .schema import Column, ColumnType, Schema
from .sql import SQLError, parse_sql, run_sql
from .table import Table

__all__ = [
    "AggSpec",
    "AggregateFunction",
    "Catalog",
    "Column",
    "ColumnType",
    "Expr",
    "Schema",
    "Table",
    "agg",
    "col",
    "distinct",
    "filter_rows",
    "group_by",
    "hash_join",
    "lit",
    "order_by",
    "parse_sql",
    "read_csv_string",
    "run_sql",
    "SQLError",
    "table_fingerprint",
]
