"""Logical optimization for SQL execution: predicate pushdown.

The WHERE clause of a feature query often conjoins predicates that each
touch a single table. Evaluating them *after* the joins multiplies the
rows every join must process; pushing each conjunct down to the earliest
table whose schema covers it shrinks the join inputs — the classic
selection-pushdown rewrite.

Pushdown is applied conservatively:

* only conjuncts (AND-connected top-level terms) move;
* a conjunct moves to a join's build side only for INNER joins (filtering
  the right side of a LEFT JOIN would change its padding semantics);
* a conjunct moves only when *all* its columns resolve unambiguously to
  one table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expressions import BinaryOp, ColumnRef, Expr, Literal, UnaryOp
from .table import Table


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate's top-level AND tree into conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.symbol == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[Expr]) -> Expr | None:
    """Rebuild a single predicate from conjuncts (None if empty)."""
    if not conjuncts:
        return None
    out = conjuncts[0]
    for term in conjuncts[1:]:
        out = out & term
    return out


def referenced_columns(expr: Expr) -> set[str]:
    """All column names an expression reads."""
    if isinstance(expr, ColumnRef):
        return {expr.name}
    if isinstance(expr, BinaryOp):
        return referenced_columns(expr.left) | referenced_columns(expr.right)
    if isinstance(expr, UnaryOp):
        return referenced_columns(expr.operand)
    if isinstance(expr, Literal):
        return set()
    return set()


@dataclass
class PushdownPlan:
    """Where each WHERE conjunct will be evaluated."""

    base_predicates: list[Expr] = field(default_factory=list)
    #: per join index: predicates applied to that join's right table
    join_predicates: dict[int, list[Expr]] = field(default_factory=dict)
    residual: list[Expr] = field(default_factory=list)


def plan_pushdown(
    where: Expr | None,
    base: Table,
    joins: list,  # list[JoinClause]
    join_tables: list[Table],
) -> PushdownPlan:
    """Assign each conjunct to the earliest table that can evaluate it."""
    plan = PushdownPlan()
    base_columns = set(base.schema.names)
    join_columns = [set(t.schema.names) for t in join_tables]

    # Columns visible in more than one source are ambiguous for pushdown.
    all_sources = [base_columns, *join_columns]
    ambiguous = {
        name
        for i, cols in enumerate(all_sources)
        for name in cols
        for j, other in enumerate(all_sources)
        if i != j and name in other
    }

    for conjunct in split_conjuncts(where):
        columns = referenced_columns(conjunct)
        if not columns:
            plan.residual.append(conjunct)
            continue
        if columns & ambiguous:
            plan.residual.append(conjunct)
            continue
        if columns <= base_columns:
            plan.base_predicates.append(conjunct)
            continue
        placed = False
        for i, (join, cols) in enumerate(zip(joins, join_columns)):
            if join.how == "inner" and columns <= cols:
                plan.join_predicates.setdefault(i, []).append(conjunct)
                placed = True
                break
        if not placed:
            plan.residual.append(conjunct)
    return plan
