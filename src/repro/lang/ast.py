"""Expression AST for the declarative linear-algebra language.

Programs are trees of :class:`Node`. Shapes are inferred at construction
time — scalar results are modeled as (1, 1) matrices, mirroring how
SystemML's HOP DAG treats aggregates. Nodes are immutable; every node has
a structural ``key()`` used by common-subexpression elimination to turn
the tree into a DAG.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import CompilerError, ShapeError
from ..operand import DENSE, registered

Shape = tuple[int, int]

#: element-wise binary operators
EWISE_OPS = {"+", "-", "*", "/", "^", "min", "max"}
#: element-wise unary operators
UNARY_OPS = {"neg", "exp", "log", "sqrt", "abs", "sigmoid", "sign", "round"}
#: full or axis aggregates
AGG_OPS = {"sum", "mean", "min", "max", "trace"}


class Node:
    """Base class for AST nodes."""

    shape: Shape
    children: tuple["Node", ...]

    @property
    def is_scalar(self) -> bool:
        return self.shape == (1, 1)

    def key(self) -> tuple:
        """Structural identity used for hash-consing / CSE."""
        raise NotImplementedError

    def with_children(self, children: list["Node"]) -> "Node":
        """A copy of this node over new children (shape re-inferred)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return pretty(self)


class Data(Node):
    """A named input matrix bound at execution time."""

    def __init__(self, name: str, shape: Shape):
        if shape[0] < 1 or shape[1] < 1:
            raise ShapeError(f"input {name!r} must have positive dims, got {shape}")
        self.name = name
        self.shape = (int(shape[0]), int(shape[1]))
        self.children = ()

    def key(self):
        return ("data", self.name, self.shape)

    def with_children(self, children):
        if children:
            raise CompilerError("Data nodes have no children")
        return self


class Constant(Node):
    """A literal matrix or scalar embedded in the program."""

    def __init__(self, value):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ShapeError(f"constants must be at most 2-D, got {arr.ndim}-D")
        self.value = arr
        self.shape = arr.shape
        self.children = ()

    def key(self):
        return ("const", self.shape, self.value.tobytes())

    def with_children(self, children):
        if children:
            raise CompilerError("Constant nodes have no children")
        return self

    @property
    def scalar_value(self) -> float:
        if not self.is_scalar:
            raise CompilerError("not a scalar constant")
        return float(self.value[0, 0])


class Binary(Node):
    """Element-wise binary operation with scalar broadcasting."""

    def __init__(self, op: str, left: Node, right: Node):
        if op not in EWISE_OPS:
            raise CompilerError(f"unknown element-wise op {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.children = (left, right)
        self.shape = _broadcast_shape(op, left.shape, right.shape)

    def key(self):
        return ("binary", self.op, self.left.key(), self.right.key())

    def with_children(self, children):
        left, right = children
        return Binary(self.op, left, right)


class Unary(Node):
    """Element-wise unary operation."""

    def __init__(self, op: str, child: Node):
        if op not in UNARY_OPS:
            raise CompilerError(f"unknown unary op {op!r}")
        self.op = op
        self.child = child
        self.children = (child,)
        self.shape = child.shape

    def key(self):
        return ("unary", self.op, self.child.key())

    def with_children(self, children):
        (child,) = children
        return Unary(self.op, child)


class MatMul(Node):
    """Matrix multiplication."""

    def __init__(self, left: Node, right: Node):
        if left.shape[1] != right.shape[0]:
            raise ShapeError(
                f"matmul shape mismatch: {left.shape} @ {right.shape}"
            )
        self.left = left
        self.right = right
        self.children = (left, right)
        self.shape = (left.shape[0], right.shape[1])

    def key(self):
        return ("matmul", self.left.key(), self.right.key())

    def with_children(self, children):
        left, right = children
        return MatMul(left, right)


class Transpose(Node):
    """Matrix transpose."""

    def __init__(self, child: Node):
        self.child = child
        self.children = (child,)
        self.shape = (child.shape[1], child.shape[0])

    def key(self):
        return ("transpose", self.child.key())

    def with_children(self, children):
        (child,) = children
        return Transpose(child)


class Aggregate(Node):
    """Full (axis=None), column-wise (axis=0), or row-wise (axis=1) aggregate.

    ``trace`` requires a square input and axis=None.
    """

    def __init__(self, op: str, child: Node, axis: int | None = None):
        if op not in AGG_OPS:
            raise CompilerError(f"unknown aggregate {op!r}")
        if op == "trace":
            if axis is not None:
                raise CompilerError("trace takes no axis")
            if child.shape[0] != child.shape[1]:
                raise ShapeError(f"trace requires a square matrix, got {child.shape}")
        if axis not in (None, 0, 1):
            raise CompilerError(f"axis must be None, 0, or 1, got {axis!r}")
        self.op = op
        self.child = child
        self.axis = axis
        self.children = (child,)
        if axis is None:
            self.shape = (1, 1)
        elif axis == 0:
            self.shape = (1, child.shape[1])
        else:
            self.shape = (child.shape[0], 1)

    def key(self):
        return ("agg", self.op, self.axis, self.child.key())

    def with_children(self, children):
        (child,) = children
        return Aggregate(self.op, child, self.axis)


class Convert(Node):
    """Representation-conversion marker inserted by the reprplan pass.

    Semantically the identity: the logical value is unchanged, only the
    physical storage of the operand below it is (re)targeted. The
    executor converts the child's value to ``target`` unless it is
    already stored that way, so pre-converted bindings make this a
    no-op per iteration.
    """

    def __init__(self, child: Node, target: str):
        # dense, or any kind a repro.operand.Operand class registered
        if target != DENSE and target not in registered():
            raise CompilerError(
                f"unknown representation {target!r}; "
                f"expected one of {sorted([DENSE, *registered()])}"
            )
        self.child = child
        self.target = target
        self.children = (child,)
        self.shape = child.shape

    def key(self):
        return ("convert", self.target, self.child.key())

    def with_children(self, children):
        (child,) = children
        return Convert(child, self.target)


class Fused(Node):
    """A fused physical operator produced by the fusion pass.

    ``kind`` names a kernel in :mod:`repro.runtime.ops`; the children are
    its inputs. Shape must be supplied by the fusion rule that builds it.
    """

    def __init__(self, kind: str, children: Iterable[Node], shape: Shape):
        self.kind = kind
        self.children = tuple(children)
        self.shape = (int(shape[0]), int(shape[1]))

    def key(self):
        return ("fused", self.kind, tuple(c.key() for c in self.children))

    def with_children(self, children):
        return Fused(self.kind, children, self.shape)


def op_label(node: Node) -> str:
    """The operator label of a node: ``matmul``, ``transpose``,
    ``binary:<op>``, ``unary:<op>``, ``agg:<op>``, ``fused:<kind>``.

    The one spelling execution stats, spans, sub-plan reuse and the
    operand capability predicate (:func:`repro.operand.serves`) key on.
    """
    if isinstance(node, (Binary, Unary)):
        return f"{type(node).__name__.lower()}:{node.op}"
    if isinstance(node, Aggregate):
        return f"agg:{node.op}"
    if isinstance(node, Fused):
        return f"fused:{node.kind}"
    return type(node).__name__.lower()


def _broadcast_shape(op: str, left: Shape, right: Shape) -> Shape:
    if left == right:
        return left
    if left == (1, 1):
        return right
    if right == (1, 1):
        return left
    # Row/column vector broadcasting against a matrix.
    if left[0] == right[0] and (left[1] == 1 or right[1] == 1):
        return (left[0], max(left[1], right[1]))
    if left[1] == right[1] and (left[0] == 1 or right[0] == 1):
        return (max(left[0], right[0]), left[1])
    raise ShapeError(f"cannot broadcast {left} {op} {right}")


def pretty(node: Node, max_depth: int = 12) -> str:
    """Human-readable rendering of an expression tree."""
    if max_depth <= 0:
        return "..."
    if isinstance(node, Data):
        return node.name
    if isinstance(node, Constant):
        if node.is_scalar:
            return f"{node.scalar_value:g}"
        return f"const{node.shape}"
    if isinstance(node, Binary):
        return (
            f"({pretty(node.left, max_depth - 1)} {node.op} "
            f"{pretty(node.right, max_depth - 1)})"
        )
    if isinstance(node, Unary):
        return f"{node.op}({pretty(node.child, max_depth - 1)})"
    if isinstance(node, MatMul):
        return (
            f"({pretty(node.left, max_depth - 1)} %*% "
            f"{pretty(node.right, max_depth - 1)})"
        )
    if isinstance(node, Transpose):
        return f"t({pretty(node.child, max_depth - 1)})"
    if isinstance(node, Aggregate):
        axis = "" if node.axis is None else f", axis={node.axis}"
        return f"{node.op}({pretty(node.child, max_depth - 1)}{axis})"
    if isinstance(node, Convert):
        return f"convert[{node.target}]({pretty(node.child, max_depth - 1)})"
    if isinstance(node, Fused):
        inner = ", ".join(pretty(c, max_depth - 1) for c in node.children)
        return f"fused:{node.kind}({inner})"
    return f"<{type(node).__name__}>"


def walk(node: Node):
    """Post-order traversal of all nodes (children before parents)."""
    for child in node.children:
        yield from walk(child)
    yield node


def unique_nodes(*roots: Node):
    """Each distinct node object reachable from ``roots`` exactly once,
    children before parents — the one DAG walk: a node CSE shared, within
    one root or across several, is visited (counted, priced,
    fingerprinted) once."""
    seen: set[int] = set()
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))


def collect_inputs(*roots: Node) -> dict[str, Shape]:
    """Names and shapes of every Data input the expressions reference."""
    inputs: dict[str, Shape] = {}
    for n in unique_nodes(*roots):
        if isinstance(n, Data):
            existing = inputs.setdefault(n.name, n.shape)
            if existing != n.shape:
                raise CompilerError(
                    f"input {n.name!r} used with conflicting shapes "
                    f"{existing} and {n.shape}"
                )
    return inputs
