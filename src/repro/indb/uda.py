"""User-defined aggregate (UDA) framework.

Bismarck's architecture observation: a whole family of ML training
algorithms fits the RDBMS aggregate contract —

* ``initialize``  -> fresh state,
* ``transition``  (state, tuple) -> state, once per row,
* ``merge``       (state, state) -> state, across parallel partitions,
* ``finalize``    state -> result.

:func:`run_uda` executes a UDA over a :class:`~repro.storage.table.Table`
exactly as a partitioned engine would: the table is split into
partitions, each partition folds rows through ``transition``, and partial
states combine pairwise through ``merge``.
"""

from __future__ import annotations

from functools import partial
from typing import Generic, Sequence, TypeVar

import numpy as np

from ..errors import StorageError
from ..obs import get_registry, span
from ..runtime.parallel import (
    PYTHON_CALL_FLOPS,
    ParallelContext,
    dispatch,
    merge_tree,
    resolve_context,
)
from ..storage.table import Table

State = TypeVar("State")
Result = TypeVar("Result")


class UDA(Generic[State, Result]):
    """Base class for user-defined aggregates."""

    def initialize(self) -> State:
        raise NotImplementedError

    def transition(self, state: State, row: np.ndarray) -> State:
        """Fold one row (a float vector of the selected columns)."""
        raise NotImplementedError

    def merge(self, left: State, right: State) -> State:
        """Combine two partial states from different partitions."""
        raise NotImplementedError

    def finalize(self, state: State) -> Result:
        return state  # type: ignore[return-value]


def _fold_partition(
    uda: UDA[State, Result], data: np.ndarray, span: tuple[int, int]
) -> State:
    """Fold one contiguous row slice through ``transition``."""
    state = uda.initialize()
    for row in data[span[0] : span[1]]:
        state = uda.transition(state, row)
    return state


def estimate_uda_cost(n_rows: int, n_cols: int) -> float:
    """Flops-equivalent cost of one UDA pass (Python transition per row)."""
    return float(n_rows) * (PYTHON_CALL_FLOPS + 2.0 * n_cols)


def run_uda(
    table: Table,
    uda: UDA[State, Result],
    columns: Sequence[str],
    partitions: int = 1,
    row_order: np.ndarray | None = None,
    parallel: bool | ParallelContext = False,
) -> Result:
    """Execute a UDA over the selected numeric columns of a table.

    Partition states always combine through a pairwise merge *tree*
    (log-depth, the shape a partitioned engine uses), so serial and
    parallel execution perform bitwise-identical merges. Partitions that
    would receive zero rows (``partitions > n_rows``) are skipped rather
    than folded through ``transition``/``merge``.

    Args:
        partitions: number of simulated parallel partitions; each gets a
            contiguous slice of rows and its own state, merged at the end.
        row_order: optional row permutation applied before partitioning
            (how the engine layer implements shuffling for IGD).
        parallel: ``True`` computes partition states concurrently on the
            shared :class:`ParallelContext` (cost-gated: small tables
            still run serially); may also be a context instance.
    """
    if partitions < 1:
        raise StorageError("partitions must be >= 1")
    data = table.to_matrix(columns)
    if row_order is not None:
        if len(row_order) != len(data):
            raise StorageError(
                f"row_order length {len(row_order)} != table rows {len(data)}"
            )
        data = data[row_order]

    n = len(data)
    bounds = np.linspace(0, n, partitions + 1).astype(int)
    spans = [
        (int(bounds[p]), int(bounds[p + 1]))
        for p in range(partitions)
        if bounds[p + 1] > bounds[p]
    ]
    if not spans:
        # Empty table: finalize a fresh state (UDAs decide whether an
        # empty aggregate is an error or an identity).
        return uda.finalize(uda.initialize())

    fold = partial(_fold_partition, uda, data)
    ctx = resolve_context(parallel)
    registry = get_registry()
    registry.inc("uda.runs")
    registry.inc("uda.rows", n)
    registry.inc("uda.partitions", len(spans))
    with span(
        "indb.run_uda",
        uda=type(uda).__name__,
        rows=n,
        cols=data.shape[1],
        partitions=len(spans),
        parallel=ctx is not None,
    ):
        states = dispatch(
            ctx,
            fold,
            spans,
            cost_hint=estimate_uda_cost(n, data.shape[1]),
            site="indb.run_uda",
        )
        return uda.finalize(merge_tree(uda.merge, states))


# ----------------------------------------------------------------------
# Simple statistics UDAs (the MADlib-style building blocks)
# ----------------------------------------------------------------------
class SumCountUDA(UDA[tuple, dict]):
    """Per-column sum and row count in one pass (mean via finalize)."""

    def initialize(self):
        return (None, 0)

    def transition(self, state, row):
        total, count = state
        total = row.copy() if total is None else total + row
        return (total, count + 1)

    def merge(self, left, right):
        lt, lc = left
        rt, rc = right
        if lt is None:
            return right
        if rt is None:
            return left
        return (lt + rt, lc + rc)

    def finalize(self, state) -> dict:
        total, count = state
        if total is None:
            raise StorageError("aggregate over an empty table")
        return {"sum": total, "count": count, "mean": total / count}


class CovarianceUDA(UDA[tuple, np.ndarray]):
    """Streaming covariance matrix over the selected columns."""

    def initialize(self):
        return (None, None, 0)

    def transition(self, state, row):
        outer, total, count = state
        if outer is None:
            outer = np.outer(row, row)
            total = row.copy()
        else:
            outer = outer + np.outer(row, row)
            total = total + row
        return (outer, total, count + 1)

    def merge(self, left, right):
        lo, lt, lc = left
        ro, rt, rc = right
        if lo is None:
            return right
        if ro is None:
            return left
        return (lo + ro, lt + rt, lc + rc)

    def finalize(self, state) -> np.ndarray:
        outer, total, count = state
        if outer is None:
            raise StorageError("aggregate over an empty table")
        mean = total / count
        return outer / count - np.outer(mean, mean)


class GramUDA(UDA[tuple, dict]):
    """Accumulate X'X and X'y in one pass: in-DB normal equations.

    The last selected column is treated as the label y; the rest form X.
    This is how MADlib's ``linregr`` trains linear models with a single
    table scan.
    """

    def initialize(self):
        return (None, None, 0)

    def transition(self, state, row):
        gram, xty, count = state
        x, y = row[:-1], row[-1]
        if gram is None:
            gram = np.outer(x, x)
            xty = y * x
        else:
            gram = gram + np.outer(x, x)
            xty = xty + y * x
        return (gram, xty, count + 1)

    def merge(self, left, right):
        lg, lx, lc = left
        rg, rx, rc = right
        if lg is None:
            return right
        if rg is None:
            return left
        return (lg + rg, lx + rx, lc + rc)

    def finalize(self, state) -> dict:
        gram, xty, count = state
        if gram is None:
            raise StorageError("aggregate over an empty table")
        return {"gram": gram, "xty": xty, "count": count}
