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
* **Streaming** (:class:`StreamingDriftMonitor`) — bucket edges are
  frozen over the training data (:func:`frozen_edges`, a deterministic
  ``linspace`` — no quantile randomness, so two identical runs freeze
  identical edges), then serving values are accumulated one at a time
  into fixed bucket counts. PSI, KS, and TV are exact functions of the
  (reference, accumulated) count vectors at any instant, so a gate can
  replay them against an analytic oracle.
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
    lo = min(a_ok.min(), b_ok.min())
    hi = max(a_ok.max(), b_ok.max())
    if lo == hi:
        distance = psi = ks = 0.0
    else:
        edges = np.linspace(lo, hi, _BUCKETS + 1)
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
# Frozen-bucket primitives (shared by batch and streaming paths)
# ----------------------------------------------------------------------
def frozen_edges(reference, buckets: int = _BUCKETS) -> np.ndarray:
    """Deterministic train-time bucket edges over a reference sample.

    A ``linspace`` over the finite range — pure content, no quantile
    estimation, so the same training bytes always freeze the same
    edges. A constant reference gets a unit-wide span around its value
    so later observations still land in well-defined buckets.
    """
    arr = np.asarray(reference, dtype=np.float64).ravel()
    ok = arr[np.isfinite(arr)]
    if ok.size == 0:
        raise SchemaError(
            "cannot freeze bucket edges: reference has no finite values"
        )
    lo, hi = float(ok.min()), float(ok.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, buckets + 1)


def bucket_counts(values, edges: np.ndarray) -> np.ndarray:
    """Counts per frozen bucket; out-of-range values clip into the end
    buckets (frozen edges must absorb covariate shift, not drop it)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    ok = arr[np.isfinite(arr)]
    last = len(edges) - 2
    idx = np.searchsorted(edges, np.clip(ok, edges[0], edges[-1]), side="right") - 1
    return np.bincount(np.clip(idx, 0, last), minlength=last + 1).astype(
        np.float64
    )


def _smoothed_probs(counts: np.ndarray) -> np.ndarray:
    total = counts.sum()
    if total <= 0:
        return np.full(len(counts), 1.0 / len(counts))
    probs = np.clip(counts / total, _PSI_EPSILON, None)
    return probs / probs.sum()


def psi_statistic(
    reference_counts: np.ndarray, current_counts: np.ndarray
) -> float:
    """Population stability index over two aligned count vectors:
    ``sum((p - q) * ln(p / q))`` with epsilon-smoothed probabilities."""
    p = _smoothed_probs(np.asarray(reference_counts, dtype=np.float64))
    q = _smoothed_probs(np.asarray(current_counts, dtype=np.float64))
    return float(np.sum((p - q) * np.log(p / q)))


def ks_statistic(
    reference_counts: np.ndarray, current_counts: np.ndarray
) -> float:
    """Kolmogorov-Smirnov statistic over the frozen buckets: the max
    absolute CDF gap evaluated at the bucket edges (unsmoothed)."""
    p = np.asarray(reference_counts, dtype=np.float64)
    q = np.asarray(current_counts, dtype=np.float64)
    if p.sum() <= 0 or q.sum() <= 0:
        return 0.0
    return float(np.max(np.abs(np.cumsum(p) / p.sum() - np.cumsum(q) / q.sum())))


def tv_statistic(
    reference_counts: np.ndarray, current_counts: np.ndarray
) -> float:
    """Total-variation distance between two aligned count vectors (the
    original batch drift score, exposed for the streaming path)."""
    p = np.asarray(reference_counts, dtype=np.float64)
    q = np.asarray(current_counts, dtype=np.float64)
    if p.sum() <= 0 or q.sum() <= 0:
        return 0.0
    return 0.5 * float(np.abs(p / p.sum() - q / q.sum()).sum())


@dataclass(frozen=True)
class DriftStats:
    """One monitor's statistics at a point in time."""

    name: str
    observed: int
    psi: float
    ks: float
    tv: float
    drifted: bool


class StreamingDriftMonitor:
    """Incremental drift statistics against a frozen training reference.

    Bucket edges are frozen at construction (train) time; every serving
    observation is O(1) — one ``searchsorted`` into the frozen edges and
    a bucket increment. PSI/KS/TV are recomputed exactly from the two
    count vectors on demand, so the monitor's numbers are replayable:
    an oracle holding the same observation list and the same frozen
    edges computes identical statistics.
    """

    def __init__(
        self,
        name: str,
        reference,
        buckets: int = _BUCKETS,
        psi_threshold: float = PSI_DEFAULT_THRESHOLD,
    ):
        self.name = name
        self.psi_threshold = float(psi_threshold)
        self.edges = frozen_edges(reference, buckets)
        self.reference_counts = bucket_counts(reference, self.edges)
        self.counts = np.zeros(len(self.edges) - 1, dtype=np.float64)
        self.observed = 0

    def observe_many(self, values) -> int:
        """Fold an array-like batch of observations; returns how many
        were finite."""
        counts = bucket_counts(values, self.edges)
        folded = int(counts.sum())
        self.counts += counts
        self.observed += folded
        return folded

    def psi(self) -> float:
        return psi_statistic(self.reference_counts, self.counts)

    def ks(self) -> float:
        return ks_statistic(self.reference_counts, self.counts)

    def tv(self) -> float:
        return tv_statistic(self.reference_counts, self.counts)

    def drifted(self) -> bool:
        """Has either streaming statistic crossed its threshold?"""
        if self.observed == 0:
            return False
        return self.psi() > self.psi_threshold or self.ks() > KS_DEFAULT_THRESHOLD

    def snapshot(self) -> DriftStats:
        return DriftStats(
            name=self.name,
            observed=self.observed,
            psi=self.psi(),
            ks=self.ks(),
            tv=self.tv(),
            drifted=self.drifted(),
        )
