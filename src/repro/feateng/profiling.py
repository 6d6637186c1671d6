"""Data profiling for ML-bound tables.

'Garbage in, garbage out' is the tutorial's recurring warning: training
data must be profiled and cleaned before it feeds a model. This module
computes per-column profiles (missingness, cardinality, moments, top
values) over the relational substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..storage.schema import ColumnType
from ..storage.table import Table


@dataclass
class ColumnProfile:
    """Summary statistics of one table column."""

    name: str
    ctype: str
    count: int
    missing: int
    distinct: int
    # Numeric-only fields (None for string columns):
    minimum: float | None = None
    maximum: float | None = None
    mean: float | None = None
    std: float | None = None
    # Most frequent value and its count:
    top_value: Any = None
    top_count: int = 0

    @property
    def missing_fraction(self) -> float:
        return self.missing / self.count if self.count else 0.0

    @property
    def is_constant(self) -> bool:
        return self.distinct <= 1

    def describe(self) -> str:
        parts = [
            f"{self.name} ({self.ctype}): n={self.count}",
            f"missing={self.missing}",
            f"distinct={self.distinct}",
        ]
        if self.mean is not None:
            parts.append(
                f"range=[{self.minimum:g}, {self.maximum:g}] "
                f"mean={self.mean:g} std={self.std:g}"
            )
        if self.top_value is not None:
            parts.append(f"top={self.top_value!r} x{self.top_count}")
        return "  ".join(parts)


def profile_column(table: Table, name: str) -> ColumnProfile:
    """Profile a single column."""
    values = table.column(name)
    ctype = table.schema.type_of(name)
    n = len(values)

    if ctype == ColumnType.FLOAT:
        missing_mask = np.isnan(values)
    elif ctype == ColumnType.STR:
        missing_mask = np.array([v is None for v in values], dtype=bool)
    else:
        missing_mask = np.zeros(n, dtype=bool)
    present = values[~missing_mask]

    profile = ColumnProfile(
        name=name,
        ctype=ctype.value,
        count=n,
        missing=int(missing_mask.sum()),
        distinct=len(set(present.tolist())),
    )
    if ctype in (ColumnType.INT, ColumnType.FLOAT, ColumnType.BOOL) and len(present):
        numeric = present.astype(np.float64)
        profile.minimum = float(numeric.min())
        profile.maximum = float(numeric.max())
        profile.mean = float(numeric.mean())
        profile.std = float(numeric.std())
    if len(present):
        uniques, counts = np.unique(present.astype(str), return_counts=True)
        winner = int(np.argmax(counts))
        # Recover an original-typed instance of the winning value.
        target = uniques[winner]
        for v in present:
            if str(v) == target:
                profile.top_value = v
                break
        profile.top_count = int(counts[winner])
    return profile


def profile_table(table: Table) -> list[ColumnProfile]:
    """Profiles for every column of a table."""
    return [profile_column(table, name) for name in table.schema.names]


def training_data_report(table: Table, label_column: str | None = None) -> str:
    """A readable pre-training data-quality report.

    Flags the classic ML data hazards the tutorial lists: missing
    values, constant columns, extreme cardinality, and (for a label
    column) class imbalance.
    """
    lines = [f"rows: {table.num_rows}, columns: {table.num_columns}"]
    for profile in profile_table(table):
        flags = []
        if profile.missing:
            flags.append(f"MISSING {profile.missing_fraction:.1%}")
        if profile.is_constant:
            flags.append("CONSTANT")
        if (
            profile.ctype == "str"
            and profile.count
            and profile.distinct > 0.5 * profile.count
        ):
            flags.append("HIGH-CARDINALITY")
        suffix = f"   [{', '.join(flags)}]" if flags else ""
        lines.append(profile.describe() + suffix)
    if label_column is not None:
        values = table.column(label_column)
        uniques, counts = np.unique(values.astype(str), return_counts=True)
        ratios = counts / counts.sum()
        lines.append(
            "label balance: "
            + ", ".join(f"{u}={r:.1%}" for u, r in zip(uniques, ratios))
        )
        if ratios.min() < 0.1:
            lines.append("WARNING: minority class below 10% — consider "
                         "re-sampling or class weighting")
    return "\n".join(lines)
