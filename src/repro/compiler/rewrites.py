"""Static algebraic rewrites.

Bottom-up, to fixpoint: constant folding, arithmetic identities,
transpose elimination, aggregate push-down, scalar pull-out of matrix
multiplication, and the classic trace rewrite
``trace(A %*% B) -> sum(A * t(B))`` that turns an O(m*k*m) product into an
O(m*k) element-wise form. These mirror the static HOP-DAG rewrites of
SystemML's compiler.
"""

from __future__ import annotations

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

_MAX_PASSES = 25
#: constants larger than this many cells are not materialized by folding
_FOLD_CELL_LIMIT = 1_000_000


def apply_rewrites(root: Node) -> Node:
    """Rewrite the tree to fixpoint; returns a new root."""
    current = root
    for _ in range(_MAX_PASSES):
        rewritten, changed = _rewrite(current)
        current = rewritten
        if not changed:
            break
    return current


def _rewrite(node: Node) -> tuple[Node, bool]:
    # Rewrite children first (bottom-up).
    changed = False
    new_children = []
    for child in node.children:
        new_child, child_changed = _rewrite(child)
        new_children.append(new_child)
        changed = changed or child_changed
    if changed:
        node = node.with_children(new_children)

    replacement = _rewrite_one(node)
    if replacement is not None:
        return replacement, True
    return node, changed


def _rewrite_one(node: Node) -> Node | None:
    """Apply the first matching rule at this node, or None."""
    folded = _fold_constants(node)
    if folded is not None:
        return folded

    if isinstance(node, Transpose):
        return _rewrite_transpose(node)
    if isinstance(node, Binary):
        return _rewrite_binary(node)
    if isinstance(node, Unary):
        return _rewrite_unary(node)
    if isinstance(node, MatMul):
        return _rewrite_matmul(node)
    if isinstance(node, Aggregate):
        return _rewrite_aggregate(node)
    return None


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------
def _fold_constants(node: Node) -> Node | None:
    if isinstance(node, (Data, Constant)) or not node.children:
        return None
    if not all(isinstance(c, Constant) for c in node.children):
        return None
    if node.shape[0] * node.shape[1] > _FOLD_CELL_LIMIT:
        return None
    values = [c.value for c in node.children]  # type: ignore[union-attr]
    result = _evaluate_on_constants(node, values)
    if result is None:
        return None
    return Constant(result)


def _evaluate_on_constants(node: Node, values: list[np.ndarray]):
    """The node's value over constant children, computed by the
    executor's own kernel (:func:`~repro.runtime.ops.apply_node`), so a
    folded constant holds the bytes the unfolded plan would compute.
    ``Convert`` and ``Fused`` nodes stay unfolded."""
    if isinstance(node, (Convert, Fused)):
        return None
    from ..runtime.ops import apply_node

    with np.errstate(all="ignore"):
        return np.broadcast_to(apply_node(node, values), node.shape).copy()


# ----------------------------------------------------------------------
# Per-type rules
# ----------------------------------------------------------------------
def _rewrite_transpose(node: Transpose) -> Node | None:
    # t(t(X)) -> X
    if isinstance(node.child, Transpose):
        return node.child.child
    # t(scalar) -> scalar
    if node.child.is_scalar:
        return node.child
    # t(c * X) -> c * t(X): hoist scalars through transpose so matmul
    # scalar pull-out (and tsmm fusion) can see through it.
    if isinstance(node.child, Binary) and node.child.op == "*":
        scalar, mat = _split_scalar_product(node.child)
        if scalar is not None and mat.shape == node.child.shape:
            return Binary("*", scalar, Transpose(mat))
    return None


def _scalar_of(node: Node) -> float | None:
    if isinstance(node, Constant) and node.is_scalar:
        return node.scalar_value
    return None


def _zeros_like(node: Node) -> Constant:
    return Constant(np.zeros(node.shape))


def _rewrite_binary(node: Binary) -> Node | None:
    left_scalar = _scalar_of(node.left)
    right_scalar = _scalar_of(node.right)

    if node.op == "+":
        if right_scalar == 0.0 and node.shape == node.left.shape:
            return node.left
        if left_scalar == 0.0 and node.shape == node.right.shape:
            return node.right
    elif node.op == "-":
        if right_scalar == 0.0 and node.shape == node.left.shape:
            return node.left
    elif node.op == "*":
        if right_scalar == 1.0 and node.shape == node.left.shape:
            return node.left
        if left_scalar == 1.0 and node.shape == node.right.shape:
            return node.right
        if right_scalar == 0.0 or left_scalar == 0.0:
            if node.shape[0] * node.shape[1] <= _FOLD_CELL_LIMIT:
                return _zeros_like(node)
    elif node.op == "/":
        if right_scalar == 1.0 and node.shape == node.left.shape:
            return node.left
    elif node.op == "^":
        if right_scalar == 1.0:
            return node.left
        if right_scalar == 0.0:
            if node.shape[0] * node.shape[1] <= _FOLD_CELL_LIMIT:
                return Constant(np.ones(node.shape))
    return None


def _rewrite_unary(node: Unary) -> Node | None:
    # neg(neg(X)) -> X
    if node.op == "neg" and isinstance(node.child, Unary) and node.child.op == "neg":
        return node.child.child
    return None


def _rewrite_matmul(node: MatMul) -> Node | None:
    # Pull scalars out of matmul: (c*X) %*% Y -> c * (X %*% Y).
    # The scalar multiply then runs on the (usually much smaller) product.
    for side in ("left", "right"):
        operand = getattr(node, side)
        if isinstance(operand, Binary) and operand.op == "*":
            scalar, mat = _split_scalar_product(operand)
            if scalar is not None:
                other = node.right if side == "left" else node.left
                inner = (
                    MatMul(mat, other) if side == "left" else MatMul(other, mat)
                )
                return Binary("*", scalar, inner)
    return None


def _split_scalar_product(node: Binary) -> tuple[Node | None, Node]:
    """For X*Y where one side is scalar, return (scalar, matrix)."""
    if node.left.is_scalar and not node.right.is_scalar:
        return node.left, node.right
    if node.right.is_scalar and not node.left.is_scalar:
        return node.right, node.left
    return None, node


def _rewrite_aggregate(node: Aggregate) -> Node | None:
    child = node.child

    # trace(A %*% B) -> sum(A * t(B)): avoids materializing the m x m product.
    if node.op == "trace" and isinstance(child, MatMul):
        return Aggregate("sum", Binary("*", child.left, Transpose(child.right)))

    if node.op == "sum" and node.axis is None:
        # sum(t(X)) -> sum(X)
        if isinstance(child, Transpose):
            return Aggregate("sum", child.child)
        # sum(A +/- B) -> sum(A) +/- sum(B) (only when shapes match exactly;
        # broadcasting would change the effective multiplicity).
        if (
            isinstance(child, Binary)
            and child.op in ("+", "-")
            and child.left.shape == child.right.shape
        ):
            return Binary(
                child.op,
                Aggregate("sum", child.left),
                Aggregate("sum", child.right),
            )
        # sum(c * X) -> c * sum(X) for scalar c
        if isinstance(child, Binary) and child.op == "*":
            scalar, mat = _split_scalar_product(child)
            if scalar is not None:
                return Binary("*", scalar, Aggregate("sum", mat))
    return None
