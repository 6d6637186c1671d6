"""The compress-or-not execution decision.

CLA does not compress unconditionally: compression pays off when (a) the
estimated ratio clears a threshold and (b) the workload re-reads the
matrix enough times to amortize the encoding cost, or (c) the dense
matrix simply does not fit the memory budget. This module makes that
decision from sampled statistics, before any encoding happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompressionError
from .planner import plan_matrix

#: below this estimated ratio, compression is considered not worthwhile
DEFAULT_MIN_RATIO = 1.2


@dataclass
class ExecutionDecision:
    """Outcome of the compress-or-not analysis."""

    compress: bool
    estimated_ratio: float
    estimated_compressed_bytes: int
    dense_bytes: int
    fits_dense: bool
    fits_compressed: bool
    reason: str


def decide_compression(
    X: np.ndarray,
    memory_budget_bytes: int | None = None,
    iterations: int = 10,
) -> ExecutionDecision:
    """Decide whether to compress ``X`` for an iterative workload.

    Args:
        memory_budget_bytes: available memory; None means unconstrained.
        iterations: how many passes the workload will make over X. A
            single-pass workload never amortizes encoding cost.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise CompressionError(f"expected a 2-D matrix, got shape {X.shape}")
    if iterations < 1:
        raise CompressionError("iterations must be >= 1")

    plan = plan_matrix(X)
    estimated_bytes = sum(p.estimated_bytes for p in plan.columns)
    dense_bytes = X.nbytes
    ratio = dense_bytes / max(estimated_bytes, 1)

    fits_dense = (
        memory_budget_bytes is None or dense_bytes <= memory_budget_bytes
    )
    fits_compressed = (
        memory_budget_bytes is None or estimated_bytes <= memory_budget_bytes
    )

    if not fits_dense and fits_compressed:
        return ExecutionDecision(
            compress=True,
            estimated_ratio=ratio,
            estimated_compressed_bytes=estimated_bytes,
            dense_bytes=dense_bytes,
            fits_dense=fits_dense,
            fits_compressed=fits_compressed,
            reason=(
                f"dense ({dense_bytes:,} B) exceeds the budget but the "
                f"compressed estimate ({estimated_bytes:,} B) fits"
            ),
        )
    if not fits_dense and not fits_compressed:
        return ExecutionDecision(
            compress=ratio >= DEFAULT_MIN_RATIO,
            estimated_ratio=ratio,
            estimated_compressed_bytes=estimated_bytes,
            dense_bytes=dense_bytes,
            fits_dense=fits_dense,
            fits_compressed=fits_compressed,
            reason=(
                "neither representation fits the budget; compression "
                "still reduces spill volume"
                if ratio >= DEFAULT_MIN_RATIO
                else "neither fits and compression would not help"
            ),
        )
    if iterations < 2:
        return ExecutionDecision(
            compress=False,
            estimated_ratio=ratio,
            estimated_compressed_bytes=estimated_bytes,
            dense_bytes=dense_bytes,
            fits_dense=fits_dense,
            fits_compressed=fits_compressed,
            reason="single-pass workload cannot amortize encoding cost",
        )
    if ratio < DEFAULT_MIN_RATIO:
        return ExecutionDecision(
            compress=False,
            estimated_ratio=ratio,
            estimated_compressed_bytes=estimated_bytes,
            dense_bytes=dense_bytes,
            fits_dense=fits_dense,
            fits_compressed=fits_compressed,
            reason=(
                f"estimated ratio {ratio:.2f}x below threshold "
                f"{DEFAULT_MIN_RATIO:.2f}x"
            ),
        )
    return ExecutionDecision(
        compress=True,
        estimated_ratio=ratio,
        estimated_compressed_bytes=estimated_bytes,
        dense_bytes=dense_bytes,
        fits_dense=fits_dense,
        fits_compressed=fits_compressed,
        reason=(
            f"ratio {ratio:.2f}x over {iterations} iterations amortizes "
            "encoding"
        ),
    )
