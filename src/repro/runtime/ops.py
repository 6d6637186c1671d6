"""Physical kernels for the plan interpreter.

Element-wise and aggregate dispatch plus the fused kernels the compiler's
fusion pass targets. Fused kernels are written to avoid materializing the
intermediate the unfused plan would create (``einsum`` contractions and
two-step matrix-vector products).
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..lang.ast import Aggregate, Binary, Fused, MatMul, Node, Transpose, Unary

_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "min": np.minimum,
    "max": np.maximum,
}


def apply_binary(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    fn = _BINARY.get(op)
    if fn is None:
        raise ExecutionError(f"unknown binary op {op!r}")
    if op == "^" and isinstance(right, np.ndarray) and right.size == 1:
        # np.power's array-exponent inner loop is SIMD-batch-dependent
        # (last-ulp differences between a 1-row and an n-row evaluation
        # of the same element); the scalar-exponent loop is not. Keep
        # elementwise plans bitwise batch-size-invariant — the parity
        # guarantee the feature store and serving scorer rely on.
        return fn(left, float(right.reshape(())))
    return fn(left, right)


def apply_unary(op: str, value: np.ndarray) -> np.ndarray:
    if op == "neg":
        return -value
    if op == "exp":
        return np.exp(value)
    if op == "log":
        return np.log(value)
    if op == "sqrt":
        return np.sqrt(value)
    if op == "abs":
        return np.abs(value)
    if op == "sign":
        return np.sign(value)
    if op == "round":
        return np.round(value)
    if op == "sigmoid":
        from ..ml.losses import sigmoid

        return sigmoid(value)
    raise ExecutionError(f"unknown unary op {op!r}")


def apply_aggregate(op: str, value: np.ndarray, axis: int | None) -> np.ndarray:
    if op == "trace":
        return np.array([[np.trace(value)]])
    fns = {"sum": np.sum, "mean": np.mean, "min": np.min, "max": np.max}
    fn = fns.get(op)
    if fn is None:
        raise ExecutionError(f"unknown aggregate {op!r}")
    if axis is None:
        return np.array([[fn(value)]])
    result = fn(value, axis=axis)
    return result.reshape(1, -1) if axis == 0 else result.reshape(-1, 1)


# ----------------------------------------------------------------------
# Fused kernels
# ----------------------------------------------------------------------
def fused_dot_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum(X * Y) without materializing X * Y."""
    return np.array([[np.einsum("ij,ij->", x, y)]])


def fused_sq_sum(x: np.ndarray) -> np.ndarray:
    """sum(X ^ 2) without materializing X ^ 2."""
    return np.array([[np.einsum("ij,ij->", x, x)]])


def fused_diff_sq_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum((X - Y) ^ 2) in one streaming pass over blocks of rows.

    Blocked so the transient difference is bounded regardless of input
    size (the point of the fused operator).
    """
    total = 0.0
    block = max(1, 65536 // max(x.shape[1], 1))
    for start in range(0, x.shape[0], block):
        d = x[start : start + block] - y[start : start + block]
        total += float(np.einsum("ij,ij->", d, d))
    return np.array([[total]])


def fused_tsmm(x: np.ndarray) -> np.ndarray:
    """t(X) %*% X without materializing t(X)."""
    return x.T @ x


def fused_mvchain(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """t(X) %*% (X %*% v) as two matrix-vector products."""
    return x.T @ (x @ v)


FUSED_KERNELS = {
    "dot_sum": fused_dot_sum,
    "sq_sum": fused_sq_sum,
    "diff_sq_sum": fused_diff_sq_sum,
    "tsmm": fused_tsmm,
    "mvchain": fused_mvchain,
}


def apply_fused(kind: str, inputs: list[np.ndarray]) -> np.ndarray:
    kernel = FUSED_KERNELS.get(kind)
    if kernel is None:
        raise ExecutionError(f"unknown fused kernel {kind!r}")
    return kernel(*inputs)


def apply_node(node: Node, children: list[np.ndarray]) -> np.ndarray:
    """Run one physical operator's dense kernel over dense children."""
    if isinstance(node, Binary):
        return apply_binary(node.op, children[0], children[1])
    if isinstance(node, Unary):
        return apply_unary(node.op, children[0])
    if isinstance(node, MatMul):
        return children[0] @ children[1]
    if isinstance(node, Transpose):
        return children[0].T
    if isinstance(node, Aggregate):
        return apply_aggregate(node.op, children[0], node.axis)
    if isinstance(node, Fused):
        return apply_fused(node.kind, children)
    raise ExecutionError(f"cannot execute node type {type(node).__name__}")
