"""Matrix-multiplication chain optimization.

Flattens maximal ``A %*% B %*% C %*% ...`` chains and re-parenthesizes
them with the classic O(k^3) dynamic program over operand dimensions.
This is the single most valuable rewrite for GLM-style programs: the
gradient ``t(X) %*% (X %*% w)`` is quadratic in the feature count if
evaluated left-to-right as ``(t(X) %*% X) %*% w`` but linear when the
chain order is optimized.
"""

from __future__ import annotations

from ..lang.ast import MatMul, Node


def optimize_mmchains(root: Node) -> Node:
    """Re-parenthesize every maximal matmul chain optimally."""
    return _visit(root)


def _visit(node: Node) -> Node:
    if isinstance(node, MatMul):
        operands = _flatten_chain(node)
        # Optimize each operand's own subtree first.
        operands = [_visit(op) for op in operands]
        if len(operands) <= 2:
            return node.with_children(operands)
        return _rebuild_optimal(operands)
    if not node.children:
        return node
    return node.with_children([_visit(c) for c in node.children])


def _flatten_chain(node: Node) -> list[Node]:
    """The maximal multiplication chain rooted at this node, in order."""
    if isinstance(node, MatMul):
        return _flatten_chain(node.left) + _flatten_chain(node.right)
    return [node]


def _rebuild_optimal(operands: list[Node]) -> Node:
    """Optimal parenthesization via the standard interval DP."""
    k = len(operands)
    # dims[i] = rows of operand i; dims[k] = cols of the last operand.
    dims = [op.shape[0] for op in operands] + [operands[-1].shape[1]]

    cost = [[0.0] * k for _ in range(k)]
    split = [[0] * k for _ in range(k)]
    for length in range(2, k + 1):
        for i in range(k - length + 1):
            j = i + length - 1
            best = float("inf")
            best_s = i
            for s in range(i, j):
                c = (
                    cost[i][s]
                    + cost[s + 1][j]
                    + dims[i] * dims[s + 1] * dims[j + 1]
                )
                if c < best:
                    best = c
                    best_s = s
            cost[i][j] = best
            split[i][j] = best_s

    def build(i: int, j: int) -> Node:
        if i == j:
            return operands[i]
        s = split[i][j]
        return MatMul(build(i, s), build(s + 1, j))

    return build(0, k - 1)
