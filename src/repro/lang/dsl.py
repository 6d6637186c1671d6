"""User-facing DSL over the expression AST.

:class:`MExpr` wraps an AST node with numpy-like operators so programs
read like the R-ish scripts of declarative ML systems:

>>> X = matrix("X", (1000, 10))
>>> w = matrix("w", (10, 1))
>>> grad = X.T @ (X @ w) / 1000
>>> loss = sumall((X @ w) ** 2)

Expressions are lazy; compile and run them with
:func:`repro.compiler.compile_expr` / :func:`repro.runtime.execute`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import CompilerError
from .ast import Aggregate, Binary, Constant, Data, MatMul, Node, Transpose, Unary


class MExpr:
    """A lazy matrix (or scalar) expression."""

    def __init__(self, node: Node):
        self.node = node

    # -- metadata ---------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.node.shape

    @property
    def is_scalar(self) -> bool:
        return self.node.is_scalar

    # -- structure ---------------------------------------------------------
    @property
    def T(self) -> "MExpr":
        return MExpr(Transpose(self.node))

    def __matmul__(self, other: Any) -> "MExpr":
        return MExpr(MatMul(self.node, _lift(other)))

    def __rmatmul__(self, other: Any) -> "MExpr":
        return MExpr(MatMul(_lift(other), self.node))

    # -- element-wise arithmetic -------------------------------------------
    def __add__(self, other: Any) -> "MExpr":
        return MExpr(Binary("+", self.node, _lift(other)))

    def __radd__(self, other: Any) -> "MExpr":
        return MExpr(Binary("+", _lift(other), self.node))

    def __sub__(self, other: Any) -> "MExpr":
        return MExpr(Binary("-", self.node, _lift(other)))

    def __rsub__(self, other: Any) -> "MExpr":
        return MExpr(Binary("-", _lift(other), self.node))

    def __mul__(self, other: Any) -> "MExpr":
        return MExpr(Binary("*", self.node, _lift(other)))

    def __rmul__(self, other: Any) -> "MExpr":
        return MExpr(Binary("*", _lift(other), self.node))

    def __truediv__(self, other: Any) -> "MExpr":
        return MExpr(Binary("/", self.node, _lift(other)))

    def __rtruediv__(self, other: Any) -> "MExpr":
        return MExpr(Binary("/", _lift(other), self.node))

    def __pow__(self, exponent: Any) -> "MExpr":
        return MExpr(Binary("^", self.node, _lift(exponent)))

    def __neg__(self) -> "MExpr":
        return MExpr(Unary("neg", self.node))


def matrix(name: str, shape: tuple[int, int]) -> MExpr:
    """Declare a named input matrix of the given shape."""
    return MExpr(Data(name, shape))


def _lift(value: Any) -> Node:
    if isinstance(value, MExpr):
        return value.node
    if isinstance(value, Node):
        return value
    if isinstance(value, (int, float, np.ndarray, list)):
        return Constant(value)
    raise CompilerError(
        f"cannot use {type(value).__name__} in a matrix expression"
    )


# ----------------------------------------------------------------------
# Free functions (R-script style)
# ----------------------------------------------------------------------
def exp(x: MExpr) -> MExpr:
    return MExpr(Unary("exp", _lift(x)))


def sqrt(x: MExpr) -> MExpr:
    return MExpr(Unary("sqrt", _lift(x)))


def sigmoid(x: MExpr) -> MExpr:
    return MExpr(Unary("sigmoid", _lift(x)))


def sumall(x: MExpr) -> MExpr:
    """Sum over all cells (a scalar)."""
    return MExpr(Aggregate("sum", _lift(x)))


def rowsums(x: MExpr) -> MExpr:
    """Row sums (an n x 1 column vector)."""
    return MExpr(Aggregate("sum", _lift(x), axis=1))


def colmeans(x: MExpr) -> MExpr:
    return MExpr(Aggregate("mean", _lift(x), axis=0))


def trace(x: MExpr) -> MExpr:
    """Sum of the diagonal of a square matrix."""
    return MExpr(Aggregate("trace", _lift(x)))
