"""Table statistics and selectivity estimation.

Equi-depth histograms per numeric column plus distinct-value counts per
string column, and a selectivity estimator for simple predicates — the
statistics layer a cost-based engine consults before choosing a plan.
:func:`explain_sql` uses these to annotate expected row counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import BinaryOp, ColumnRef, Expr, Literal, UnaryOp
from .schema import ColumnType
from .table import Table

DEFAULT_BUCKETS = 16
#: fallback selectivity for predicates the estimator cannot analyze
UNKNOWN_SELECTIVITY = 0.33


@dataclass
class NumericHistogram:
    """Equi-depth histogram: each bucket holds ~the same number of rows."""

    edges: np.ndarray  # (k+1,) bucket boundaries
    counts: np.ndarray  # (k,) rows per bucket
    n_rows: int

    @classmethod
    def build(cls, values: np.ndarray, buckets: int = DEFAULT_BUCKETS):
        values = np.asarray(values, dtype=np.float64)
        values = values[np.isfinite(values)]
        if len(values) == 0:
            return cls(np.array([0.0, 0.0]), np.array([0]), 0)
        quantiles = np.linspace(0, 100, buckets + 1)
        edges = np.percentile(values, quantiles)
        edges = np.unique(edges)  # collapse duplicate boundaries
        if len(edges) < 2:
            edges = np.array([edges[0], edges[0]])
            return cls(edges, np.array([len(values)]), len(values))
        counts, _ = np.histogram(values, bins=edges)
        return cls(edges, counts, len(values))

    def fraction_below(self, threshold: float, inclusive: bool) -> float:
        """Estimated fraction of rows with value < (or <=) threshold."""
        if self.n_rows == 0:
            return 0.0
        if threshold < self.edges[0]:
            return 0.0
        if threshold >= self.edges[-1]:
            return 1.0
        total = 0.0
        for i in range(len(self.counts)):
            lo, hi = self.edges[i], self.edges[i + 1]
            if threshold >= hi:
                total += self.counts[i]
            elif threshold > lo:
                width = hi - lo
                covered = (threshold - lo) / width if width > 0 else 1.0
                total += self.counts[i] * covered
                break
            else:
                break
        return float(total) / self.n_rows


@dataclass
class TableStats:
    """Per-column statistics for one table."""

    n_rows: int
    histograms: dict[str, NumericHistogram] = field(default_factory=dict)
    distinct: dict[str, int] = field(default_factory=dict)

    @classmethod
    def collect(cls, table: Table):
        stats = cls(n_rows=table.num_rows)
        for column in table.schema:
            values = table.column(column.name)
            if column.ctype in (ColumnType.INT, ColumnType.FLOAT):
                stats.histograms[column.name] = NumericHistogram.build(
                    values.astype(np.float64)
                )
                stats.distinct[column.name] = len(np.unique(values))
            elif column.ctype == ColumnType.STR:
                stats.distinct[column.name] = len(set(values.tolist()))
            else:  # BOOL
                stats.distinct[column.name] = len(np.unique(values))
        return stats


def estimate_selectivity(expr: Expr, stats: TableStats) -> float:
    """Estimated fraction of rows a predicate keeps.

    Handles column-vs-literal comparisons via histograms, equality via
    distinct counts, AND/OR/NOT composition (independence assumption),
    and falls back to :data:`UNKNOWN_SELECTIVITY` otherwise.
    """
    if isinstance(expr, BinaryOp):
        if expr.symbol == "and":
            return estimate_selectivity(expr.left, stats) * estimate_selectivity(
                expr.right, stats
            )
        if expr.symbol == "or":
            a = estimate_selectivity(expr.left, stats)
            b = estimate_selectivity(expr.right, stats)
            return min(1.0, a + b - a * b)
        return _comparison_selectivity(expr, stats)
    if isinstance(expr, UnaryOp) and expr.symbol == "not":
        return 1.0 - estimate_selectivity(expr.operand, stats)
    if isinstance(expr, UnaryOp) and expr.symbol == "isin":
        return UNKNOWN_SELECTIVITY
    return UNKNOWN_SELECTIVITY


def _comparison_selectivity(expr: BinaryOp, stats: TableStats) -> float:
    column, literal, symbol = _normalize_comparison(expr)
    if column is None:
        return UNKNOWN_SELECTIVITY

    if symbol in ("==",):
        d = stats.distinct.get(column)
        if d:
            return min(1.0, 1.0 / d)
        return UNKNOWN_SELECTIVITY
    if symbol in ("!=",):
        d = stats.distinct.get(column)
        if d:
            return max(0.0, 1.0 - 1.0 / d)
        return UNKNOWN_SELECTIVITY

    histogram = stats.histograms.get(column)
    if histogram is None or not isinstance(literal, (int, float)):
        return UNKNOWN_SELECTIVITY
    value = float(literal)
    if symbol == "<":
        return histogram.fraction_below(value, inclusive=False)
    if symbol == "<=":
        return histogram.fraction_below(value, inclusive=True)
    if symbol == ">":
        return 1.0 - histogram.fraction_below(value, inclusive=True)
    if symbol == ">=":
        return 1.0 - histogram.fraction_below(value, inclusive=False)
    return UNKNOWN_SELECTIVITY


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _normalize_comparison(expr: BinaryOp):
    """Return (column, literal, symbol) with the column on the left."""
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left.name, expr.right.value, expr.symbol
    if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        return expr.right.name, expr.left.value, _FLIP.get(expr.symbol, expr.symbol)
    return None, None, expr.symbol


def estimate_rows(expr: Expr | None, stats: TableStats) -> int:
    """Estimated surviving row count for a predicate over a table."""
    if expr is None:
        return stats.n_rows
    return int(round(stats.n_rows * estimate_selectivity(expr, stats)))
