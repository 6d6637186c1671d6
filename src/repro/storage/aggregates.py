"""Aggregate functions for group-by and full-table aggregation.

Each aggregate implements a *grouped* vectorized form: given the values of
one column and a dense group-id per row, produce one output value per
group. This is the same decomposition (transition + finalize over
partitions) that the in-database ML layer's user-defined aggregates use,
so simple SQL-style aggregates and learning aggregates share machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import StorageError


class AggregateFunction:
    """Base class: reduce column values per group."""

    name: str = "agg"
    #: column name the aggregate reads; None means COUNT(*)-style row count
    requires_column: bool = True

    def apply(
        self, values: np.ndarray | None, group_ids: np.ndarray, num_groups: int
    ) -> np.ndarray:
        raise NotImplementedError


class Count(AggregateFunction):
    """COUNT(*) — number of rows per group."""

    name = "count"
    requires_column = False

    def apply(self, values, group_ids, num_groups):
        return np.bincount(group_ids, minlength=num_groups).astype(np.int64)


class Sum(AggregateFunction):
    name = "sum"

    def apply(self, values, group_ids, num_groups):
        _require_numeric(values, self.name)
        return np.bincount(
            group_ids, weights=values.astype(np.float64), minlength=num_groups
        )


class Mean(AggregateFunction):
    name = "mean"

    def apply(self, values, group_ids, num_groups):
        _require_numeric(values, self.name)
        sums = np.bincount(
            group_ids, weights=values.astype(np.float64), minlength=num_groups
        )
        counts = np.bincount(group_ids, minlength=num_groups)
        return sums / np.maximum(counts, 1)


class _ExtremumAggregate(AggregateFunction):
    """Shared implementation for per-group min/max via sort-free reduction."""

    _ufunc: Callable

    def apply(self, values, group_ids, num_groups):
        if values is None:
            raise StorageError(f"{self.name} requires a column")
        if values.dtype == object:
            # String min/max: slow path by group.
            out = np.empty(num_groups, dtype=object)
            seen = np.zeros(num_groups, dtype=bool)
            pick = min if self.name == "min" else max
            for v, g in zip(values, group_ids):
                if not seen[g]:
                    out[g] = v
                    seen[g] = True
                else:
                    out[g] = pick(out[g], v)
            return out
        out = np.full(
            num_groups,
            np.inf if self.name == "min" else -np.inf,
            dtype=np.float64,
        )
        self._ufunc.at(out, group_ids, values.astype(np.float64))
        return out


class Min(_ExtremumAggregate):
    name = "min"
    _ufunc = np.minimum


class Max(_ExtremumAggregate):
    name = "max"
    _ufunc = np.maximum


_BY_NAME: dict[str, Callable[[], AggregateFunction]] = {
    "count": Count,
    "sum": Sum,
    "mean": Mean,
    "avg": Mean,
    "min": Min,
    "max": Max,
}


@dataclass(frozen=True)
class AggSpec:
    """One requested aggregate: function, input column, output name."""

    func: AggregateFunction
    column: str | None
    output: str


def agg(name: str, column: str | None = None, output: str | None = None) -> AggSpec:
    """Build an aggregate spec by function name.

    >>> agg("mean", "price", output="avg_price")
    """
    if name not in _BY_NAME:
        raise StorageError(
            f"unknown aggregate {name!r}; known: {sorted(_BY_NAME)}"
        )
    func = _BY_NAME[name]()
    if func.requires_column and column is None:
        raise StorageError(f"aggregate {name!r} requires a column")
    if output is None:
        output = f"{name}_{column}" if column else name
    return AggSpec(func, column, output)


def _require_numeric(values: np.ndarray | None, name: str) -> None:
    if values is None:
        raise StorageError(f"{name} requires a column")
    if values.dtype == object:
        raise StorageError(f"{name} requires a numeric column")
