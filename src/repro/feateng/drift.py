"""Training/serving drift detection.

Models degrade silently when serving data drifts from training data.
This module compares two tables column-by-column — histogram distance
for numeric columns, category-frequency distance for strings, missing
rates for both — and produces a report with per-column drift scores in
[0, 1], flagged against a threshold.

Two modes:

* **Batch** (:func:`detect_drift`) — both tables in hand; the flagging
  score is the original total-variation-style distance, with PSI and KS
  reported alongside on every numeric column.
* **Streaming** (:class:`~repro.features.DriftGate`) — bucket edges
  are frozen over the training data (:func:`frozen_edges`, a
  deterministic ``linspace`` — no quantile randomness, so two identical
  runs freeze identical edges), then served values are folded into fixed
  bucket counts (:func:`bucket_counts`). PSI, KS, and TV are exact
  functions of the (reference, accumulated) count rows at any instant,
  so a gate can replay them against an analytic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SchemaError
from ..storage.schema import ColumnType
from ..storage.table import Table

DEFAULT_THRESHOLD = 0.2
#: the conventional PSI alarm level ("significant shift" >= 0.25).
PSI_DEFAULT_THRESHOLD = 0.25
#: KS statistic alarm level over the frozen buckets.
KS_DEFAULT_THRESHOLD = 0.25
_BUCKETS = 20
#: probability floor for PSI (empty buckets would make it infinite).
_PSI_EPSILON = 1e-6


@dataclass
class ColumnDrift:
    """Drift assessment for one column.

    ``score`` (the flagging metric) keeps its original TV-style
    definition; ``psi`` and ``ks`` ride alongside for numeric columns
    (``psi`` also for categoricals, over category frequencies).
    """

    name: str
    score: float  # total-variation-style distance in [0, 1]
    drifted: bool
    detail: str
    psi: float = 0.0
    ks: float = 0.0


@dataclass
class DriftReport:
    """Per-column drift plus summary helpers."""

    columns: list[ColumnDrift] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD

    @property
    def drifted_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.drifted]

    def describe(self) -> str:
        lines = []
        for c in sorted(self.columns, key=lambda c: -c.score):
            flag = "  DRIFT" if c.drifted else ""
            lines.append(f"{c.name:<20} score={c.score:.3f}  {c.detail}{flag}")
        return "\n".join(lines)


def detect_drift(
    train: Table,
    serve: Table,
    columns: list[str] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> DriftReport:
    """Compare serving data against training data, column by column.

    Numeric columns: total-variation distance between histograms built
    on the union range. String columns: half the L1 distance between
    category frequency vectors (categories absent on one side count
    fully). Missing-rate changes add to the score.
    """
    if columns is None:
        columns = [n for n in train.schema.names if n in serve.schema]
    report = DriftReport(threshold=threshold)
    for name in columns:
        if name not in train.schema or name not in serve.schema:
            raise SchemaError(f"column {name!r} missing from one table")
        ctype = train.schema.type_of(name)
        if ctype in (ColumnType.INT, ColumnType.FLOAT, ColumnType.BOOL):
            drift = _numeric_drift(
                train.column(name).astype(np.float64),
                serve.column(name).astype(np.float64),
                name,
            )
        else:
            drift = _categorical_drift(
                train.column(name), serve.column(name), name
            )
        drift.drifted = drift.score > threshold
        report.columns.append(drift)
    return report


def _numeric_drift(a: np.ndarray, b: np.ndarray, name: str) -> ColumnDrift:
    a_ok = a[np.isfinite(a)]
    b_ok = b[np.isfinite(b)]
    missing_gap = abs(
        (1 - len(a_ok) / max(len(a), 1)) - (1 - len(b_ok) / max(len(b), 1))
    )
    if len(a_ok) == 0 or len(b_ok) == 0:
        return ColumnDrift(name, 1.0, True, "one side entirely missing")
    # over the union's range; a constant union widens to a unit span,
    # where both sides fill one bucket and every statistic reads 0
    edges = frozen_edges(np.concatenate([a_ok, b_ok]))
    pa = bucket_counts(a_ok, edges)
    pb = bucket_counts(b_ok, edges)
    distance = tv_statistic(pa, pb)
    psi = psi_statistic(pa, pb)
    ks = ks_statistic(pa, pb)
    score = min(1.0, distance + missing_gap)
    detail = (
        f"train mean {a_ok.mean():.3g} vs serve mean {b_ok.mean():.3g}"
    )
    return ColumnDrift(name, score, False, detail, psi=psi, ks=ks)


def _categorical_drift(a: np.ndarray, b: np.ndarray, name: str) -> ColumnDrift:
    def frequencies(values: np.ndarray) -> dict:
        present = [v for v in values.tolist() if v is not None]
        if not present:
            return {}
        out: dict = {}
        for v in present:
            out[v] = out.get(v, 0) + 1
        total = len(present)
        return {k: c / total for k, c in out.items()}

    fa = frequencies(a)
    fb = frequencies(b)
    if not fa or not fb:
        return ColumnDrift(name, 1.0, True, "one side entirely missing")
    keys = sorted(set(fa) | set(fb), key=str)
    distance = 0.5 * sum(abs(fa.get(k, 0.0) - fb.get(k, 0.0)) for k in keys)
    psi = psi_statistic(
        np.array([fa.get(k, 0.0) for k in keys]),
        np.array([fb.get(k, 0.0) for k in keys]),
    )
    new_categories = sorted(set(fb) - set(fa))
    detail = (
        f"{len(keys)} categories"
        + (f", new at serving: {new_categories[:3]}" if new_categories else "")
    )
    return ColumnDrift(name, float(distance), False, detail, psi=psi)


# ----------------------------------------------------------------------
# Frozen-bucket primitives (shared by batch and streaming paths), row-
# wise over count matrices (one row per feature; 1-D is the one-row case)
# ----------------------------------------------------------------------
def frozen_edges(reference) -> np.ndarray:
    """Deterministic train-time bucket edges over a reference sample.

    A ``linspace`` over the finite range — pure content, no quantile
    estimation, so the same training bytes always freeze the same
    edges. A constant reference gets a unit-wide span around its value
    so later observations still land in well-defined buckets.
    """
    try:
        arr = np.asarray(reference, dtype=np.float64).ravel()
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"cannot freeze bucket edges: reference is not numeric ({exc})"
        ) from None
    ok = arr[np.isfinite(arr)]
    if ok.size == 0:
        raise SchemaError(
            "cannot freeze bucket edges: reference has no finite values"
        )
    lo, hi = float(ok.min()), float(ok.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, _BUCKETS + 1)


def bucket_counts(values, edges: np.ndarray) -> np.ndarray:
    """Counts per frozen bucket, row ``i`` of ``values`` against row
    ``i`` of ``edges``: out-of-range values clip into the end buckets
    (frozen edges must absorb covariate shift, not drop it), non-finite
    ones count nowhere, and counts are integer-valued float64. One
    broadcast comparison buckets every value: over sorted edges, the
    count of *interior* edges <= max(x, low edge) is exactly
    ``searchsorted(side="right") - 1`` clipped to the end buckets."""
    edges = np.asarray(edges, dtype=np.float64)
    grid = edges.reshape(-1, edges.shape[-1])
    rows = np.ascontiguousarray(values, np.float64).reshape(len(grid), -1)
    features, buckets = grid.shape[0], grid.shape[1] - 1
    clipped = np.maximum(rows, grid[:, :1])
    idx = (grid.T[1:-1, :, None] <= clipped).sum(axis=0, dtype=np.intp)
    idx += buckets * np.arange(features)[:, None]
    counts = np.bincount(
        idx[np.isfinite(rows)], minlength=features * buckets
    ).astype(np.float64).reshape(features, buckets)
    return counts if edges.ndim > 1 else counts[0]


def count_side(counts) -> tuple[np.ndarray, ...]:
    """One side of a comparison, normalised once for every statistic:
    each count row's epsilon-smoothed probabilities (PSI; uniform for an
    empty row), its CDF at the bucket edges (KS), its shares (TV) and
    whether it holds any mass (an empty row divides by 1, not 0)."""
    rows = np.atleast_2d(np.asarray(counts, dtype=np.float64))
    total = rows.sum(axis=-1, keepdims=True)
    mass = total[:, 0] > 0
    total = np.where(total > 0, total, 1.0)
    shares = rows / total
    probs = np.maximum(shares, _PSI_EPSILON)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    probs = np.where(mass[:, None], probs, 1.0 / rows.shape[-1])
    return probs, rows.cumsum(axis=-1) / total, shares, mass


def side_statistics(ref, cur) -> tuple[np.ndarray, ...]:
    """PSI, KS and TV rows between two :func:`count_side` sides. PSI is
    ``sum((p - q) * ln(p / q))`` over the smoothed probabilities; KS, the
    max absolute CDF gap at the bucket edges, and TV, half the L1 gap
    of the shares, are unsmoothed and 0 when a side is empty."""
    (p, p_cdf, p_shares, p_mass), (q, q_cdf, q_shares, q_mass) = ref, cur
    both = p_mass & q_mass
    psi = ((p - q) * np.log(p / q)).sum(axis=-1)
    ks = np.where(both, np.abs(p_cdf - q_cdf).max(axis=-1), 0.0)
    tv = np.where(both, 0.5 * np.abs(p_shares - q_shares).sum(axis=-1), 0.0)
    return psi, ks, tv


def _statistic(which: int, reference_counts, current_counts):
    sides = count_side(reference_counts), count_side(current_counts)
    stat = side_statistics(*sides)[which]
    return stat if np.ndim(current_counts) > 1 else float(stat[0])


def psi_statistic(reference_counts, current_counts) -> np.ndarray | float:
    """Population stability index over aligned count rows (see
    :func:`side_statistics`)."""
    return _statistic(0, reference_counts, current_counts)


def ks_statistic(reference_counts, current_counts) -> np.ndarray | float:
    """Kolmogorov-Smirnov statistic over the frozen buckets (see
    :func:`side_statistics`)."""
    return _statistic(1, reference_counts, current_counts)


def tv_statistic(reference_counts, current_counts) -> np.ndarray | float:
    """Total-variation distance between aligned count rows, the original
    batch drift score (see :func:`side_statistics`)."""
    return _statistic(2, reference_counts, current_counts)


@dataclass(frozen=True)
class DriftStats:
    """One feature's drift statistics at a point in time."""

    name: str
    observed: int
    psi: float
    ks: float
    tv: float
    drifted: bool
