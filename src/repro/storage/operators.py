"""Relational operators over column-store tables.

These are classic single-node, vectorized implementations: predicates are
evaluated column-at-a-time, joins hash-partition the build side, and
group-by maps keys to dense group ids and reduces with per-group
vectorized aggregates. Together with :mod:`repro.storage.table` they form
the relational substrate the in-database ML layer runs on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SchemaError, StorageError
from .aggregates import AggSpec
from .expressions import Expr
from .table import Table


def filter_rows(table: Table, predicate: Expr) -> Table:
    """Rows where the predicate evaluates to true."""
    mask = np.asarray(predicate.evaluate(table), dtype=bool)
    return table.mask(mask)


def order_by(
    table: Table, names: Sequence[str], descending: bool = False
) -> Table:
    """Rows sorted by the given key columns (stable sort)."""
    if not names:
        raise StorageError("order_by requires at least one key column")
    keys = [table.column(n) for n in reversed(names)]
    order = np.lexsort([_sortable(k) for k in keys])
    if descending:
        order = order[::-1]
    return table.take(order)


def distinct(table: Table) -> Table:
    """Rows deduplicated on every column (first occurrence kept)."""
    _, first_idx = _group_ids(table, list(table.schema.names))
    return table.take(np.sort(first_idx))


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def hash_join(
    left: Table,
    right: Table,
    on: str | Sequence[str],
    right_on: str | Sequence[str] | None = None,
    how: str = "inner",
) -> Table:
    """Hash join of two tables.

    Args:
        on: key column(s) of the left table.
        right_on: key column(s) of the right table (defaults to ``on``).
        how: ``"inner"`` or ``"left"``. Left join pads unmatched right
            columns with type defaults (0 / NaN / None / False).

    The right side is used as the build side. Non-key right columns whose
    names collide with left columns are disambiguated with a ``right_``
    prefix. Key columns are emitted once (from the left).
    """
    left_keys = [on] if isinstance(on, str) else list(on)
    right_keys = (
        left_keys
        if right_on is None
        else ([right_on] if isinstance(right_on, str) else list(right_on))
    )
    if len(left_keys) != len(right_keys):
        raise StorageError(
            f"join key arity mismatch: {left_keys} vs {right_keys}"
        )
    if how not in ("inner", "left"):
        raise StorageError(f"unsupported join type {how!r}")

    build = _build_hash_index(right, right_keys)
    probe_rows = zip(*[left.column(k) for k in left_keys])

    left_idx: list[int] = []
    right_idx: list[int] = []
    for i, key in enumerate(probe_rows):
        matches = build.get(key)
        if matches is not None:
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
        elif how == "left":
            left_idx.append(i)
            right_idx.append(-1)

    left_out = left.take(np.asarray(left_idx, dtype=np.int64))

    # Assemble the right-side payload (non-key columns).
    payload_names = [n for n in right.schema.names if n not in right_keys]
    out = left_out
    right_positions = np.asarray(right_idx, dtype=np.int64)
    unmatched = right_positions < 0
    safe_positions = np.where(unmatched, 0, right_positions)
    for name in payload_names:
        values = right.column(name)[safe_positions] if len(right) else _defaults(
            right, name, len(right_positions)
        )
        if unmatched.any():
            values = _pad_unmatched(values, unmatched)
        out_name = name if name not in out.schema else f"right_{name}"
        out = out.with_column(out_name, values)
    return out


def _build_hash_index(table: Table, keys: Sequence[str]) -> dict:
    index: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(*[table.column(k) for k in keys])):
        index.setdefault(key, []).append(i)
    return index


def _defaults(table: Table, name: str, n: int) -> np.ndarray:
    dtype = table.column(name).dtype
    if dtype.kind == "f":
        return np.full(n, np.nan)
    if dtype.kind in "iu":
        return np.zeros(n, dtype=np.int64)
    if dtype.kind == "b":
        return np.zeros(n, dtype=bool)
    return np.array([None] * n, dtype=object)


def _pad_unmatched(values: np.ndarray, unmatched: np.ndarray) -> np.ndarray:
    values = values.copy()
    if values.dtype.kind == "f":
        values[unmatched] = np.nan
    elif values.dtype.kind in "iu":
        values[unmatched] = 0
    elif values.dtype.kind == "b":
        values[unmatched] = False
    else:
        values[unmatched] = None
    return values


# ----------------------------------------------------------------------
# Group-by
# ----------------------------------------------------------------------
def group_by(
    table: Table, keys: Sequence[str], aggregates: Sequence[AggSpec]
) -> Table:
    """Group rows by key columns and compute aggregates per group.

    Output schema: key columns (one row per distinct key combination, in
    first-occurrence order) followed by one column per aggregate.
    """
    if not aggregates:
        raise StorageError("group_by requires at least one aggregate")
    seen = set()
    for spec in aggregates:
        if spec.output in seen or spec.output in keys:
            raise SchemaError(f"duplicate output column {spec.output!r}")
        seen.add(spec.output)

    group_ids, first_idx = _group_ids(table, keys)
    num_groups = len(first_idx)

    out = table.take(first_idx).select(keys) if keys else Table.from_columns({})
    if not keys:
        # Full-table aggregation: a single group.
        group_ids = np.zeros(table.num_rows, dtype=np.int64)
        num_groups = 1
        out = None

    result_cols: dict[str, np.ndarray] = {}
    for spec in aggregates:
        values = table.column(spec.column) if spec.column is not None else None
        result_cols[spec.output] = spec.func.apply(values, group_ids, num_groups)

    if out is None:
        return Table.from_columns(result_cols)
    for name, values in result_cols.items():
        out = out.with_column(name, values)
    return out


def _group_ids(table: Table, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Map each row to a dense group id; also return first-row index per group.

    Group ids are assigned in first-occurrence order so the output
    preserves the order groups appear in the input.
    """
    if not keys:
        n = table.num_rows
        return np.zeros(n, dtype=np.int64), np.zeros(min(n, 1), dtype=np.int64)
    key_columns = [table.column(k) for k in keys]
    ids = np.empty(table.num_rows, dtype=np.int64)
    first: list[int] = []
    mapping: dict[tuple, int] = {}
    for i, key in enumerate(zip(*key_columns)):
        gid = mapping.get(key)
        if gid is None:
            gid = len(mapping)
            mapping[key] = gid
            first.append(i)
        ids[i] = gid
    return ids, np.asarray(first, dtype=np.int64)


def _sortable(values: np.ndarray) -> np.ndarray:
    """Coerce object (string) columns to a sortable representation."""
    if values.dtype == object:
        return np.array(["" if v is None else str(v) for v in values])
    return values
