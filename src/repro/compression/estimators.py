"""Sampling-based statistics estimators for the compression planner.

Compressing a column requires knowing its distinct count, run count, and
nonzero count — but scanning every column fully to decide *whether* to
compress defeats the purpose. The planner therefore estimates these from
a small row sample, the way CLA does: a Chao-style distinct-count
estimator (hapaxes indicate unseen values) and linear scale-up for runs
and nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompressionError
from .rle import count_runs

#: rows every sample holds at least (or the whole column, if shorter)
MIN_SAMPLE = 100


@dataclass
class ColumnStats:
    """Estimated statistics of one column (or column tuple)."""

    num_rows: int
    num_distinct: int
    num_runs: int
    num_nonzero: int


def estimate_distinct(sample: np.ndarray, total_rows: int) -> int:
    """Chao (1984) lower-bound distinct-count estimator, scaled.

    d_hat = d_sample + f1^2 / (2 * f2), where f1/f2 are the counts of
    values seen exactly once/twice in the sample. Capped at total_rows.
    """
    values, counts = np.unique(sample, return_counts=True)
    d_sample = len(values)
    if len(sample) >= total_rows:
        return d_sample
    f1 = int(np.sum(counts == 1))
    f2 = int(np.sum(counts == 2))
    if f1 == 0:
        estimate = d_sample
    elif f2 == 0:
        estimate = d_sample + f1 * (f1 - 1) / 2.0
    else:
        estimate = d_sample + (f1 * f1) / (2.0 * f2)
    return int(min(max(estimate, d_sample), total_rows))


def estimate_column_stats(
    column: np.ndarray,
    sample_fraction: float = 0.05,
    seed: int = 0,
) -> ColumnStats:
    """Estimate a column's stats from a contiguous-start row sample.

    Runs must be estimated from *contiguous* rows (random rows destroy
    run structure), so the sample is a random contiguous window; distinct
    and nonzero counts are robust to that choice.
    """
    if not 0 < sample_fraction <= 1:
        raise CompressionError("sample_fraction must be in (0, 1]")
    n = len(column)
    size = min(n, max(MIN_SAMPLE, int(n * sample_fraction)))
    if size >= n:
        sample = column
    else:
        rng = np.random.default_rng(seed)
        start = int(rng.integers(0, n - size + 1))
        sample = column[start : start + size]

    scale = n / len(sample)
    distinct = estimate_distinct(sample, n)
    runs_sample = count_runs(sample)
    # Runs scale linearly but can never exceed n or fall below distinct.
    runs = int(min(n, max(distinct, round(runs_sample * scale))))
    nnz = int(min(n, round(np.count_nonzero(sample) * scale)))
    return ColumnStats(
        num_rows=n, num_distinct=distinct, num_runs=runs, num_nonzero=nnz
    )


def exact_column_stats(column: np.ndarray) -> ColumnStats:
    """Exact stats (the oracle the planner's estimates are tested against)."""
    return ColumnStats(
        num_rows=len(column),
        num_distinct=len(np.unique(column)),
        num_runs=count_runs(column),
        num_nonzero=int(np.count_nonzero(column)),
    )


def estimate_joint_distinct(
    columns: list[np.ndarray],
    sample_fraction: float = 0.05,
) -> int:
    """Estimated distinct count of the row-tuples over several columns.

    Used by co-coding: combining columns pays off only when their joint
    cardinality stays far below the product of the individual ones.
    """
    if not columns:
        raise CompressionError("need at least one column")
    n = len(columns[0])
    size = min(n, max(MIN_SAMPLE, int(n * sample_fraction)))
    rng = np.random.default_rng(0)
    if size >= n:
        idx = np.arange(n)
    else:
        idx = rng.choice(n, size=size, replace=False)
    stacked = np.column_stack([c[idx] for c in columns])
    tuples = np.array([row.tobytes() for row in stacked])
    return estimate_distinct(tuples, n)
