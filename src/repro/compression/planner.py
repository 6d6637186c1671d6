"""Compression planning: scheme selection and co-coding.

For each column the planner estimates (from a sample) the storage each
encoding would need and picks the cheapest; columns whose best estimate
beats dense storage are compression candidates, the rest stay in an
uncompressed group. Candidate columns are then greedily *co-coded*:
pairs whose estimated joint dictionary stays small share one group,
amortizing the per-row code storage — CLA's grouping heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CompressionError
from ..obs import get_registry, span
from .colgroup import ColumnGroup, UncompressedGroup
from .ddc import DDCGroup, estimated_ddc_bytes
from .estimators import (
    ColumnStats,
    estimate_column_stats,
    estimate_joint_distinct,
    exact_column_stats,
)
from .ole import OLEGroup, estimated_ole_bytes
from .rle import RLEGroup, estimated_rle_bytes


@dataclass
class ColumnPlan:
    """Planner decision for one column."""

    index: int
    stats: ColumnStats
    scheme: str
    estimated_bytes: int
    dense_bytes: int

    @property
    def estimated_ratio(self) -> float:
        return self.dense_bytes / max(self.estimated_bytes, 1)


@dataclass
class CompressionPlan:
    """Full plan: per-column decisions plus final grouping."""

    columns: list[ColumnPlan]
    groups: list[tuple[str, list[int]]] = field(default_factory=list)


def plan_column(
    column: np.ndarray,
    sample_fraction: float = 0.05,
    exact: bool = False,
    seed: int = 0,
    index: int = 0,
) -> ColumnPlan:
    """Choose the best scheme for a single column from estimated stats."""
    stats = (
        exact_column_stats(column)
        if exact
        else estimate_column_stats(column, sample_fraction, seed=seed)
    )
    n = stats.num_rows
    candidates = {
        "ddc": estimated_ddc_bytes(n, 1, stats.num_distinct),
        "ole": estimated_ole_bytes(n, 1, stats.num_distinct, stats.num_nonzero),
        "rle": estimated_rle_bytes(n, 1, stats.num_distinct, stats.num_runs),
        "uncompressed": n * 8,
    }
    scheme = min(candidates, key=candidates.__getitem__)
    return ColumnPlan(
        index=index,
        stats=stats,
        scheme=scheme,
        estimated_bytes=candidates[scheme],
        dense_bytes=n * 8,
    )


def plan_matrix(
    X: np.ndarray,
    sample_fraction: float = 0.05,
    exact: bool = False,
) -> CompressionPlan:
    """Plan every column, then group compressible columns.

    Grouping: uncompressed columns form one group; each RLE/OLE column is
    its own group (their row layouts rarely align across columns); DDC
    columns are greedily pair-merged when the estimated joint cardinality
    keeps the combined dictionary cheaper than separate groups.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise CompressionError(f"expected a non-empty 2-D matrix, got {X.shape}")
    with span(
        "compression.plan_matrix",
        rows=X.shape[0],
        cols=X.shape[1],
        sample_fraction=sample_fraction,
        exact=exact,
    ) as plan_span:
        plans = [
            plan_column(X[:, j], sample_fraction, exact, seed=j, index=j)
            for j in range(X.shape[1])
        ]

        groups: list[tuple[str, list[int]]] = []
        uncompressed = [p.index for p in plans if p.scheme == "uncompressed"]
        if uncompressed:
            groups.append(("uncompressed", uncompressed))
        for p in plans:
            if p.scheme in ("ole", "rle"):
                groups.append((p.scheme, [p.index]))

        ddc_cols = [p for p in plans if p.scheme == "ddc"]
        if len(ddc_cols) > 1:
            groups.extend(
                ("ddc", members)
                for members in _cocode_ddc(X, ddc_cols, sample_fraction)
            )
        else:
            groups.extend(("ddc", [p.index]) for p in ddc_cols)
        _publish_plan(plans, groups, sample_fraction, exact, plan_span)
        return CompressionPlan(columns=plans, groups=groups)


def _publish_plan(
    plans: list[ColumnPlan],
    groups: list[tuple[str, list[int]]],
    sample_fraction: float,
    exact: bool,
    plan_span,
) -> None:
    """Record sampling knobs + chosen encodings in the metrics registry."""
    registry = get_registry()
    registry.inc("compression.plans")
    registry.inc("compression.columns_planned", len(plans))
    registry.set_gauge(
        "compression.sample_fraction", 1.0 if exact else sample_fraction
    )
    for p in plans:
        registry.inc(f"compression.scheme.{p.scheme}")
    registry.inc("compression.groups", len(groups))
    cocoded = sum(
        len(members) for scheme, members in groups
        if scheme == "ddc" and len(members) > 1
    )
    registry.inc("compression.cocoded_columns", cocoded)
    plan_span.set("groups", len(groups))
    plan_span.set("cocoded_columns", cocoded)
    plan_span.set(
        "schemes", ",".join(sorted({scheme for scheme, _ in groups}))
    )


def _cocode_ddc(
    X: np.ndarray,
    plans: list[ColumnPlan],
    sample_fraction: float,
) -> list[list[int]]:
    """Greedy pairwise merging of DDC columns.

    Start with singleton groups sorted by cardinality; repeatedly try to
    merge the two cheapest groups — accept if the estimated co-coded size
    undercuts the sum of the separate sizes.
    """
    n = X.shape[0]
    # (member column indices, estimated distinct, estimated bytes)
    groups = [
        ([p.index], p.stats.num_distinct, p.estimated_bytes) for p in plans
    ]
    groups.sort(key=lambda g: g[1])

    merged = True
    while merged and len(groups) > 1:
        merged = False
        for i in range(len(groups) - 1):
            a, b = groups[i], groups[i + 1]
            members = a[0] + b[0]
            joint = estimate_joint_distinct(
                [X[:, j] for j in members], sample_fraction
            )
            combined = estimated_ddc_bytes(n, len(members), joint)
            if combined < a[2] + b[2]:
                groups[i : i + 2] = [(members, joint, combined)]
                merged = True
                break
    return [g[0] for g in groups]


def build_groups(X: np.ndarray, plan: CompressionPlan) -> list[ColumnGroup]:
    """Materialize the encoded column groups for a plan."""
    X = np.asarray(X, dtype=np.float64)
    built: list[ColumnGroup] = []
    for scheme, members in plan.groups:
        cols = np.asarray(members, dtype=np.int64)
        panel = X[:, cols]
        if scheme == "uncompressed":
            built.append(UncompressedGroup(cols, panel))
        elif scheme == "ddc":
            built.append(DDCGroup.encode(cols, panel))
        elif scheme == "ole":
            built.append(OLEGroup.encode(cols, panel))
        elif scheme == "rle":
            built.append(RLEGroup.encode(cols, panel))
        else:
            raise CompressionError(f"unknown scheme {scheme!r}")
    return built
