"""User-defined aggregate (UDA) framework.

Bismarck's architecture observation: a whole family of ML training
algorithms fits the RDBMS aggregate contract —

* ``initialize``  -> fresh state,
* ``transition_many`` (state, block of tuples) -> state, in row order
  (``transition`` is the same fold for one tuple),
* ``merge``       (state, state) -> state, across parallel partitions,
* ``finalize``    state -> result.

:func:`run_uda` executes a UDA over a :class:`~repro.storage.table.Table`
exactly as a partitioned engine would: the table is split into
partitions, each partition folds its rows a block at a time through
``transition_many``, and partial states combine pairwise through
``merge``.
"""

from __future__ import annotations

from functools import partial
from typing import Generic, Sequence, TypeVar

import numpy as np

from ..errors import StorageError
from ..ml.linreg import Moments
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

#: rows the engine hands ``transition_many`` at a time (a zero-copy view
#: of the partition); bounds a block aggregate's temporaries.
_BLOCK_ROWS = 1024


class UDA(Generic[State, Result]):
    """Base class for user-defined aggregates.

    A subclass defines ``transition`` (one row) or ``transition_many``
    (a block of rows) and gets the other derived from it, at class
    creation; so of an inherited pair the most-derived definition wins
    (overriding only ``transition`` under a block-form parent is
    honoured), and ``super()`` reaches the parent's form from either.
    """

    #: whether the fold interprets every row (the derived row loop, IGD's
    #: sequential steps) or only every block; read by the cost gate.
    steps_per_row = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        one, many = own.get("transition"), own.get("transition_many")
        if one is None and many is not None:
            cls.transition = lambda self, state, row: many(
                self, state, row[None, :]
            )
        elif many is None and one is not None:

            def transition_many(self, state, block):
                for row in block:
                    state = one(self, state, row)
                return state

            cls.transition_many = transition_many
            cls.steps_per_row = True

    def initialize(self) -> State:
        raise NotImplementedError

    def transition(self, state: State, row: np.ndarray) -> State:
        """Fold one row (a float vector of the selected columns)."""
        raise NotImplementedError

    def transition_many(self, state: State, block: np.ndarray) -> State:
        """Fold a ``(rows, columns)`` block, in row order."""
        raise NotImplementedError

    def merge(self, left: State, right: State) -> State:
        """Combine two partial states from different partitions."""
        raise NotImplementedError

    def finalize(self, state: State) -> Result:
        return state  # type: ignore[return-value]


def _fold_partition(
    uda: UDA[State, Result], data: np.ndarray, span: tuple[int, int]
) -> State:
    """Fold one contiguous row slice through ``transition_many``."""
    state = uda.initialize()
    for lo in range(span[0], span[1], _BLOCK_ROWS):
        state = uda.transition_many(
            state, data[lo : min(lo + _BLOCK_ROWS, span[1])]
        )
        if state is None:
            raise StorageError(
                f"{type(uda).__name__}.transition_many returned None "
                "(a transition must return its state)"
            )
    return state


def estimate_uda_cost(
    n_rows: int, n_cols: int, steps_per_row: bool = True
) -> float:
    """Flops-equivalent cost of one UDA pass: the arithmetic plus one
    interpreter step per row (IGD, a row-form UDA) or per block."""
    steps = n_rows if steps_per_row else -(-n_rows // _BLOCK_ROWS)
    return steps * PYTHON_CALL_FLOPS + 2.0 * n_rows * n_cols


def run_uda(
    table: Table,
    uda: UDA[State, Result],
    columns: Sequence[str],
    partitions: int = 1,
    row_order: np.ndarray | None = None,
    parallel: ParallelContext | None = None,
) -> Result:
    """Execute a UDA over the selected numeric columns of a table.

    Partition states always combine through a pairwise merge *tree*
    (log-depth, the shape a partitioned engine uses), so serial and
    parallel execution perform bitwise-identical merges. Partitions that
    would receive zero rows (``partitions > n_rows``) are skipped rather
    than folded through ``transition_many``/``merge``.

    Args:
        partitions: number of simulated parallel partitions; each gets a
            contiguous slice of rows and its own state, merged at the end.
        row_order: optional row permutation applied before partitioning
            (how the engine layer implements shuffling for IGD).
        parallel: a :class:`ParallelContext` computes partition states
            concurrently on its pool (cost-gated: small tables still run
            serially).
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
            cost_hint=estimate_uda_cost(n, data.shape[1], uda.steps_per_row),
            site="indb.run_uda",
        )
        return uda.finalize(merge_tree(uda.merge, states))


# ----------------------------------------------------------------------
# Simple statistics UDAs (the MADlib-style building blocks)
# ----------------------------------------------------------------------
class BlockSumsUDA(UDA[tuple, Result]):
    """State = a tuple of additive parts (sums of per-row terms, last the
    row count), ``None`` in place of the first until a block is folded;
    a subclass says what one block contributes."""

    steps_per_row = False

    def block_parts(self, block: np.ndarray) -> tuple:
        raise NotImplementedError

    def initialize(self):
        return (None, 0)

    def transition_many(self, state, block):
        return self.merge(state, self.block_parts(block))

    def merge(self, left, right):
        if left[0] is None:
            return right
        if right[0] is None:
            return left
        return tuple(l + r for l, r in zip(left, right))

    def finalize(self, state):
        if state[0] is None:
            raise StorageError("aggregate over an empty table")
        return state


class GramUDA(BlockSumsUDA[Moments]):
    """Accumulate ``[X|y]'[X|y]`` in one pass: in-DB normal equations.

    The last selected column is treated as the label y; the rest form X.
    This is how MADlib's ``linregr`` trains linear models with a single
    table scan.
    """

    def block_parts(self, block):
        return (block.T @ block, len(block))

    def finalize(self, state) -> Moments:
        return Moments.of_augmented(*super().finalize(state))
