"""A SQL front-end for the relational substrate.

Implements the query subset an in-RDBMS ML workflow actually issues —
the MADlib-style feature queries of the tutorial's first pillar:

    SELECT [DISTINCT] cols | aggregates
    FROM table
    [JOIN table ON a = b]...
    [WHERE predicate]
    [GROUP BY cols [HAVING predicate]]
    [ORDER BY col [DESC]]
    [LIMIT n]

Queries compile onto the operators of :mod:`repro.storage.operators`:

>>> run_sql("SELECT city, AVG(income) AS avg_income FROM people "
...         "GROUP BY city ORDER BY avg_income DESC", catalog)

The dialect supports arithmetic and boolean expressions, ``IN`` lists,
``IS [NOT] NULL``, column aliases, and inner/left joins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from ..errors import StorageError
from .aggregates import AggSpec, agg
from .catalog import Catalog
from .expressions import Expr, col, lit
from .operators import (
    distinct,
    extend,
    filter_rows,
    group_by,
    hash_join,
    limit,
    order_by,
)
from .table import Table


class SQLError(StorageError):
    """The query is malformed or refers to missing objects."""


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<number>\d+\.\d*|\.\d+|\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<symbol><>|!=|<=|>=|=|<|>|\(|\)|,|\*|\+|-|/|\.)
    )
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "JOIN", "LEFT", "INNER", "ON", "WHERE",
    "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "AS", "AND", "OR", "NOT",
    "IN", "IS", "NULL", "DESC", "ASC", "TRUE", "FALSE",
}

AGGREGATE_NAMES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass
class Token:
    kind: str  # 'number' | 'string' | 'ident' | 'keyword' | 'symbol' | 'end'
    value: str
    position: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.start() != pos:
            raise SQLError(f"unexpected character {text[pos]!r} at {pos}")
        kind = match.lastgroup or "symbol"
        value = match.group(kind)
        if kind == "ident" and value.upper() in KEYWORDS:
            tokens.append(Token("keyword", value.upper(), pos))
        else:
            tokens.append(Token(kind, value, pos))
        pos = match.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------
@dataclass
class SelectItem:
    """One output column: a plain expression or an aggregate call."""

    expression: Expr | None  # None for aggregate items
    aggregate: AggSpec | None
    alias: str | None
    source_text: str


@dataclass
class JoinClause:
    table: str
    left_key: str
    right_key: str
    how: str  # 'inner' | 'left'


@dataclass
class SelectQuery:
    items: list[SelectItem]
    star: bool
    table: str
    joins: list[JoinClause] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[str] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[str] = field(default_factory=list)
    order_desc: bool = False
    limit: int | None = None
    distinct: bool = False


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
class _Parser:
    def __init__(self, tokens: list[Token], text: str):
        self.tokens = tokens
        self.text = text
        self.index = 0

    # -- token helpers ----------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.current
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            want = value or kind
            raise SQLError(
                f"expected {want} at position {self.current.position}, "
                f"got {self.current.value!r}"
            )
        return token

    # -- grammar -----------------------------------------------------------
    def parse(self) -> SelectQuery:
        self.expect("keyword", "SELECT")
        is_distinct = self.accept("keyword", "DISTINCT") is not None
        star, items = self._select_list()
        self.expect("keyword", "FROM")
        table = self.expect("ident").value

        joins = []
        while True:
            how = "inner"
            if self.accept("keyword", "LEFT"):
                how = "left"
                self.expect("keyword", "JOIN")
            elif self.accept("keyword", "INNER"):
                self.expect("keyword", "JOIN")
            elif not self.accept("keyword", "JOIN"):
                break
            join_table = self.expect("ident").value
            self.expect("keyword", "ON")
            left_key = self.expect("ident").value
            self.expect("symbol", "=")
            right_key = self.expect("ident").value
            joins.append(JoinClause(join_table, left_key, right_key, how))

        where = None
        if self.accept("keyword", "WHERE"):
            where = self._expression()

        group_cols: list[str] = []
        having = None
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            group_cols.append(self.expect("ident").value)
            while self.accept("symbol", ","):
                group_cols.append(self.expect("ident").value)
            if self.accept("keyword", "HAVING"):
                having = self._expression()

        order_cols: list[str] = []
        desc = False
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            order_cols.append(self.expect("ident").value)
            while self.accept("symbol", ","):
                order_cols.append(self.expect("ident").value)
            if self.accept("keyword", "DESC"):
                desc = True
            else:
                self.accept("keyword", "ASC")

        limit_n = None
        if self.accept("keyword", "LIMIT"):
            limit_n = int(self.expect("number").value)

        self.expect("end")
        return SelectQuery(
            items=items,
            star=star,
            table=table,
            joins=joins,
            where=where,
            group_by=group_cols,
            having=having,
            order_by=order_cols,
            order_desc=desc,
            limit=limit_n,
            distinct=is_distinct,
        )

    def _select_list(self) -> tuple[bool, list[SelectItem]]:
        if self.accept("symbol", "*"):
            return True, []
        items = [self._select_item()]
        while self.accept("symbol", ","):
            items.append(self._select_item())
        return False, items

    def _select_item(self) -> SelectItem:
        start = self.current.position
        token = self.current
        if (
            token.kind == "ident"
            and token.value.upper() in AGGREGATE_NAMES
            and self.tokens[self.index + 1].value == "("
        ):
            spec = self._aggregate_call()
            alias = self._alias()
            if alias:
                spec = AggSpec(spec.func, spec.column, alias)
            return SelectItem(None, spec, alias, self.text[start:])
        expression = self._expression()
        alias = self._alias()
        return SelectItem(expression, None, alias, self.text[start:])

    def _aggregate_call(self) -> AggSpec:
        name = self.expect("ident").value.upper()
        self.expect("symbol", "(")
        if name == "COUNT" and self.accept("symbol", "*"):
            self.expect("symbol", ")")
            return agg("count")
        column = self.expect("ident").value
        self.expect("symbol", ")")
        mapping = {"SUM": "sum", "AVG": "avg", "MIN": "min", "MAX": "max",
                   "COUNT": "count"}
        if name == "COUNT":
            # COUNT(col) counts rows; nulls are not tracked separately here.
            return agg("count", output=f"count_{column}")
        return agg(mapping[name], column)

    def _alias(self) -> str | None:
        if self.accept("keyword", "AS"):
            return self.expect("ident").value
        return None

    # -- expression grammar -------------------------------------------------
    def _expression(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        left = self._and()
        while self.accept("keyword", "OR"):
            left = left | self._and()
        return left

    def _and(self) -> Expr:
        left = self._not()
        while self.accept("keyword", "AND"):
            left = left & self._not()
        return left

    def _not(self) -> Expr:
        if self.accept("keyword", "NOT"):
            return ~self._not()
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        token = self.current
        if token.kind == "symbol" and token.value in (
            "=", "!=", "<>", "<", "<=", ">", ">=",
        ):
            self.advance()
            right = self._additive()
            ops = {
                "=": lambda a, b: a == b,
                "!=": lambda a, b: a != b,
                "<>": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }
            return ops[token.value](left, right)
        if self.accept("keyword", "IN"):
            self.expect("symbol", "(")
            values = [self._literal_value()]
            while self.accept("symbol", ","):
                values.append(self._literal_value())
            self.expect("symbol", ")")
            return left.isin(values)
        if self.accept("keyword", "IS"):
            negated = self.accept("keyword", "NOT") is not None
            self.expect("keyword", "NULL")
            null_check = left.is_null()
            return ~null_check if negated else null_check
        return left

    def _additive(self) -> Expr:
        left = self._term()
        while True:
            if self.accept("symbol", "+"):
                left = left + self._term()
            elif self.accept("symbol", "-"):
                left = left - self._term()
            else:
                return left

    def _term(self) -> Expr:
        left = self._factor()
        while True:
            if self.accept("symbol", "*"):
                left = left * self._factor()
            elif self.accept("symbol", "/"):
                left = left / self._factor()
            else:
                return left

    def _factor(self) -> Expr:
        if self.accept("symbol", "("):
            inner = self._expression()
            self.expect("symbol", ")")
            return inner
        if self.accept("symbol", "-"):
            return -self._factor()
        token = self.current
        if token.kind == "number":
            self.advance()
            return lit(_number(token.value))
        if token.kind == "string":
            self.advance()
            return lit(_unquote(token.value))
        if token.kind == "keyword" and token.value in ("TRUE", "FALSE"):
            self.advance()
            return lit(token.value == "TRUE")
        if token.kind == "keyword" and token.value == "NULL":
            self.advance()
            return lit(None)
        if token.kind == "ident":
            self.advance()
            return col(token.value)
        raise SQLError(
            f"unexpected token {token.value!r} at position {token.position}"
        )

    def _literal_value(self) -> Any:
        token = self.current
        if token.kind == "number":
            self.advance()
            return _number(token.value)
        if token.kind == "string":
            self.advance()
            return _unquote(token.value)
        raise SQLError(
            f"expected a literal at position {token.position}, "
            f"got {token.value!r}"
        )


def _number(text: str):
    return float(text) if "." in text else int(text)


def _unquote(text: str) -> str:
    return text[1:-1].replace("''", "'")


def parse_sql(text: str) -> SelectQuery:
    """Parse a SELECT statement into a query AST."""
    return _Parser(tokenize(text), text).parse()


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
def run_sql(text: str, catalog: Catalog, optimize: bool = True) -> Table:
    """Parse and execute a SELECT against tables in a catalog.

    With ``optimize`` (default), single-table WHERE conjuncts are pushed
    below the joins (see :mod:`repro.storage.sqlopt`).
    """
    from .sqlopt import conjoin, plan_pushdown

    query = parse_sql(text)
    table = catalog.get(query.table)
    join_tables = [catalog.get(j.table) for j in query.joins]

    if optimize:
        plan = plan_pushdown(query.where, table, query.joins, join_tables)
        for predicate in plan.base_predicates:
            table = filter_rows(table, predicate)
        for i, join in enumerate(query.joins):
            right = join_tables[i]
            for predicate in plan.join_predicates.get(i, []):
                right = filter_rows(right, predicate)
            table = hash_join(
                table,
                right,
                on=join.left_key,
                right_on=join.right_key,
                how=join.how,
            )
        residual = conjoin(plan.residual)
        if residual is not None:
            table = filter_rows(table, residual)
    else:
        for join, right in zip(query.joins, join_tables):
            table = hash_join(
                table,
                right,
                on=join.left_key,
                right_on=join.right_key,
                how=join.how,
            )
        if query.where is not None:
            table = filter_rows(table, query.where)

    if query.group_by or any(item.aggregate for item in query.items):
        table = _execute_aggregation(table, query)
    elif not query.star:
        table = _execute_projection(table, query)

    if query.distinct:
        table = distinct(table)
    if query.order_by:
        table = order_by(table, query.order_by, descending=query.order_desc)
    if query.limit is not None:
        table = limit(table, query.limit)
    return table


def _execute_projection(table: Table, query: SelectQuery) -> Table:
    names = []
    for i, item in enumerate(query.items):
        if item.aggregate is not None:
            raise SQLError("aggregate outside GROUP BY context")
        name = item.alias or _plain_column_name(item.expression)
        if name is None:
            name = f"expr_{i}"
        if (
            _plain_column_name(item.expression) == name
            and name in table.schema
        ):
            names.append(name)
        else:
            table = extend(table, name, item.expression)
            names.append(name)
    return table.select(names)


def _execute_aggregation(table: Table, query: SelectQuery) -> Table:
    aggregates = []
    output_names = []
    for item in query.items:
        if item.aggregate is not None:
            aggregates.append(item.aggregate)
            output_names.append(item.aggregate.output)
        else:
            name = _plain_column_name(item.expression)
            if name is None or name not in query.group_by:
                raise SQLError(
                    "non-aggregate SELECT items must be GROUP BY columns"
                )
            output_names.append(name)
    if not aggregates:
        raise SQLError("GROUP BY requires at least one aggregate")
    result = group_by(table, query.group_by, aggregates)
    if query.having is not None:
        result = filter_rows(result, query.having)
    return result.select(output_names) if output_names else result


def _plain_column_name(expression: Expr | None) -> str | None:
    from .expressions import ColumnRef

    if isinstance(expression, ColumnRef):
        return expression.name
    return None
