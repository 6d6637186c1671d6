"""Sparsity propagation through expression DAGs.

Declarative ML compilers track an nnz estimate per intermediate so they
can pick sparse kernels and size memory budgets. This module implements
the standard worst-case propagation rules over the AST (the same rules
SystemML's HOP-level size propagation uses).
"""

from __future__ import annotations

from functools import partial

import numpy as np

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
)
from ..operand import zero_preserving
from ..runtime.ops import apply_unary


def propagate_sparsity(
    root: Node, input_sparsity: dict[str, float] | None = None
) -> dict[int, float]:
    """Estimated nonzero fraction for every node, keyed by ``id(node)``.

    Args:
        input_sparsity: sparsity of each Data input by name; inputs not
            listed are assumed dense (1.0).
    """
    input_sparsity = input_sparsity or {}
    out: dict[int, float] = {}

    def visit(node: Node) -> float:
        cached = out.get(id(node))
        if cached is not None:
            return cached
        child_s = [visit(c) for c in node.children]
        s = _rule(node, child_s, input_sparsity)
        out[id(node)] = s
        return s

    visit(root)
    return out


def _rule(node: Node, child_s: list[float], inputs: dict[str, float]) -> float:
    if isinstance(node, Data):
        return float(np.clip(inputs.get(node.name, 1.0), 0.0, 1.0))
    if isinstance(node, Constant):
        cells = node.value.size or 1
        return float(np.count_nonzero(node.value)) / cells
    if isinstance(node, Transpose):
        return child_s[0]
    if isinstance(node, Convert):
        return child_s[0]  # physical-only: the logical value is unchanged
    if isinstance(node, Unary):
        if zero_preserving(partial(apply_unary, node.op)):
            return child_s[0]
        return 1.0  # exp/log/sigmoid map 0 to a nonzero
    if isinstance(node, Binary):
        s1, s2 = child_s
        if node.op == "*":
            # Worst-case independence: nonzero only where both are.
            return min(s1, s2) if _either_scalar(node) else s1 * s2
        if node.op in ("+", "-", "min", "max"):
            return min(1.0, s1 + s2)
        if node.op == "/":
            return s1  # zeros of the numerator survive
        if node.op == "^":
            exponent = node.right
            if (
                isinstance(exponent, Constant)
                and exponent.is_scalar
                and exponent.scalar_value == 0.0
            ):
                return 1.0  # x^0 == 1 everywhere
            return s1
        return 1.0
    if isinstance(node, MatMul):
        s1, s2 = child_s
        k = node.left.shape[1]
        # P(output cell nonzero) = 1 - P(every product term zero).
        return float(1.0 - (1.0 - s1 * s2) ** k)
    if isinstance(node, (Aggregate, Fused)):
        return 1.0
    return 1.0


def _either_scalar(node: Binary) -> bool:
    return node.left.is_scalar or node.right.is_scalar
