"""Analytical cost model for expression DAGs.

Costs are estimated exactly the way HOP-level optimizers do it: FLOPs from
shapes (matmul dominates) and intermediate memory from output sizes. The
model does not try to be cycle-accurate — it only needs to *rank* plans,
which is what the mmchain optimizer and the explain output use it for.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.ast import (
    Aggregate,
    Binary,
    Constant,
    Convert,
    Data,
    Fused,
    MatMul,
    Node,
    Transpose,
    Unary,
    unique_nodes,
)

BYTES_PER_CELL = 8  # float64


def _cells(shape: tuple[int, int]) -> int:
    return shape[0] * shape[1]


def node_flops(node: Node) -> int:
    """Estimated floating-point operations to evaluate one node
    (children assumed already available)."""
    if isinstance(node, (Data, Constant)):
        return 0
    if isinstance(node, MatMul):
        m, k = node.left.shape
        n = node.right.shape[1]
        return 2 * m * k * n
    if isinstance(node, (Binary, Unary)):
        return _cells(node.shape) if isinstance(node, Unary) else _cells(node.shape)
    if isinstance(node, Transpose):
        return _cells(node.shape)
    if isinstance(node, Convert):
        # One pass over the operand; free once bindings are pre-converted.
        return _cells(node.shape)
    if isinstance(node, Aggregate):
        return _cells(node.child.shape)
    if isinstance(node, Fused):
        return _fused_flops(node)
    return _cells(node.shape)


def _fused_flops(node: Fused) -> int:
    """Arithmetic cost of each fused kernel (same math, fewer passes)."""
    if node.kind == "tsmm":
        n, d = node.children[0].shape
        return 2 * n * d * d
    if node.kind == "mvchain":
        n, d = node.children[0].shape
        return 4 * n * d  # two matrix-vector products
    # Streaming reductions: one multiply-add per input cell.
    return sum(_cells(c.shape) for c in node.children) * 2


def node_output_bytes(node: Node) -> int:
    """Memory for one node's materialized output."""
    if isinstance(node, (Data, Constant)):
        return 0  # inputs are not intermediates
    return _cells(node.shape) * BYTES_PER_CELL


@dataclass
class CostEstimate:
    """Aggregate cost of evaluating an expression DAG once."""

    flops: int
    intermediate_bytes: int
    num_ops: int

    def __str__(self) -> str:
        return (
            f"flops={self.flops:,} intermediates={self.intermediate_bytes:,}B "
            f"ops={self.num_ops}"
        )


def estimate(*roots: Node) -> CostEstimate:
    """Cost of the DAG reachable from ``roots``.

    Shared subexpressions (the same node object reached twice, from one
    root or from two) are counted once, which is exactly the benefit CSE
    buys.
    """
    flops = mem = ops = 0
    for node in unique_nodes(*roots):
        flops += node_flops(node)
        mem += node_output_bytes(node)
        ops += not isinstance(node, (Data, Constant))
    return CostEstimate(flops=flops, intermediate_bytes=mem, num_ops=ops)
