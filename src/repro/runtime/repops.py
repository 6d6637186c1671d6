"""Representation-aware physical operators for the plan interpreter.

The executor evaluates DAG nodes bottom-up; when a child value is a
:class:`repro.operand.Operand` (CLA, CSR, the normalized matrix, or the
transpose view over one), dispatch lands here instead of the dense
kernels in :mod:`repro.runtime.ops`.

:func:`decide` is the dispatch decision, taken from the operands'
*forms* alone (kind, transposed, 1x1 value) by asking the capability
predicate :func:`repro.operand.serves`: which operand's native kernel
runs the operator, and which representation operands must densify
first. :func:`eval_node` carries the decision out on real operands —
one densification per operand per execution, recorded on the stats
object so benchmarks can attribute it — and the representation planner
(:mod:`repro.compiler.reprplan`) calls the same :func:`decide` over the
forms the operands *would* have, so what it predicts is what runs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..lang.ast import (
    Aggregate,
    Binary,
    MatMul,
    Node,
    Transpose,
    Unary,
    op_label,
)
# The operand readers stay importable from here (benchmarks use them).
from ..operand import (
    ABSENT,
    DENSE,
    REPRESENTATION,
    SCALAR,
    convert_value,
    densify,
    is_representation,
    kind_of,
    operand_bytes,
    serves,
)
from .ops import apply_binary, apply_node, apply_unary

#: the value of a 1x1 operand that only exists at run time
UNKNOWN = object()


class Form(NamedTuple):
    """What dispatch needs to know about one operand."""

    kind: str = DENSE
    transposed: bool = False
    #: identity of the stored operand (tells a Gram product E.T @ E)
    token: object = None
    #: a dense 1x1's value (``UNKNOWN`` to the planner when it is
    #: computed at run time); ``None`` for everything else
    scalar: object = None


class Dispatch(NamedTuple):
    """How one operator runs over operands of given forms."""

    #: operand whose native kernel runs; ``None`` for the dense kernel
    served: int | None
    #: representation operands that densify first
    densified: tuple[int, ...] = ()
    #: the elementwise map the kernel applies, when the operator is one
    fn: Callable | None = None
    #: the result's form when it stays a representation
    result: Form | None = None


def form_of(value) -> Form:
    if is_representation(value):
        stored = value.base if value.transposed else value
        return Form(value.kind, value.transposed, id(stored))
    if isinstance(value, np.ndarray) and value.shape == (1, 1):
        return Form(scalar=float(value[0, 0]))
    return Form()


def _elementwise_map(node: Node, operand: int, other: Form | None):
    """The map ``node`` applies to its ``operand``-th child, if it is an
    elementwise map of that child alone and fully known."""
    if isinstance(node, Unary):
        return partial(apply_unary, node.op)
    if isinstance(node, Binary) and other.scalar not in (None, UNKNOWN):
        scalar = other.scalar
        if operand == 0:
            return lambda values: apply_binary(node.op, values, scalar)
        return lambda values: apply_binary(node.op, scalar, values)
    return None


def decide(node: Node, forms: Sequence[Form]) -> Dispatch:
    """Dispatch ``node`` over operands of ``forms`` (at least one of
    them a representation)."""
    reps = [i for i, form in enumerate(forms) if form.kind != DENSE]
    if isinstance(node, MatMul) and len(reps) == 2:
        left, right = forms
        if (
            left.transposed
            and not right.transposed
            and left.token == right.token
        ):
            # Gram pattern E.T @ E over one shared operand (the memoized
            # DAG hands over the view and its base): every class ships
            # a native gram kernel.
            return Dispatch(1)
        # matmat/rmatmat take a dense operand: the right one gives way.
        return Dispatch(0, (1,))
    operand = reps[0]
    form = forms[operand]
    other = forms[1 - operand] if len(forms) == 2 else None
    if other is None:
        other_is = ABSENT
    elif other.kind != DENSE:
        other_is = REPRESENTATION
    else:
        other_is = DENSE if other.scalar is None else SCALAR
    fn = _elementwise_map(node, operand, other)
    label = op_label(node)
    # The fused chain t(X) @ (X @ v) runs on its matrix slot only.
    in_slot = operand == 0 or label != "fused:mvchain"
    if not in_slot or not serves(
        form.kind, label, form.transposed, other_is, fn
    ):
        return Dispatch(None, tuple(reps))
    if isinstance(node, Transpose):
        flipped = form._replace(transposed=not form.transposed)
        return Dispatch(operand, result=flipped)
    if isinstance(node, (Unary, Binary)):
        # value rewrites and sparse * dense stay in the kind
        return Dispatch(operand, (), fn, form._replace(token=id(node)))
    return Dispatch(operand)


# ----------------------------------------------------------------------
# Node dispatch
# ----------------------------------------------------------------------
def eval_node(node: Node, children: list, stats, dense_cache: dict):
    """Evaluate one node with at least one representation child.

    Returns the result (ndarray or representation operand). Native
    dispatches and densification fallbacks are tallied on ``stats``
    (``note_native`` / ``note_fallback``).
    """
    label = op_label(node)
    served, densified, fn, _ = decide(node, [form_of(c) for c in children])
    for i in densified:
        children[i] = _fallback_dense(children[i], label, stats, dense_cache)
    if served is None:
        return apply_node(node, children)
    rep = children[served]
    stats.note_native(f"{label}[{rep.kind}]")
    if isinstance(node, Transpose):
        return rep.T
    if fn is not None:
        return rep.map_values(fn)
    if isinstance(node, Aggregate):
        return _aggregate(node, rep)
    if isinstance(node, MatMul):
        return _matmul(children, served)
    other = None if len(children) == 1 else children[1 - served]
    if isinstance(node, Binary):
        # Sparse * dense (incl. row/column broadcast) stays sparse.
        other = np.broadcast_to(np.asarray(other, dtype=np.float64), rep.shape)
        return rep.multiply_dense(np.ascontiguousarray(other))
    if node.kind == "mvchain":
        return rep.rmatmat(rep.matmat(np.asarray(other, dtype=np.float64)))
    if node.kind == "sq_sum":
        return np.array([[rep.sq_sum()]])
    if node.kind == "dot_sum":
        product = rep.multiply_dense(np.asarray(other, dtype=np.float64))
        return np.array([[product.sum()]])
    return np.asarray(rep.gram(), dtype=np.float64)  # tsmm


def _fallback_dense(value, label: str, stats, dense_cache: dict):
    """One-time densification of an operand (memoized per execution)."""
    cached = dense_cache.get(id(value))
    if cached is None:
        cached = densify(value)
        dense_cache[id(value)] = cached
    stats.note_fallback(label, value.kind)
    return cached


def _matmul(children: list, served: int):
    left, right = children
    if is_representation(left) and is_representation(right):
        return np.asarray(right.gram(), dtype=np.float64)
    if served == 0:
        return left.matmat(np.asarray(right, dtype=np.float64))
    # dense @ rep: (A @ B) == (B.T @ A.T).T, which is B.rmatmat(A.T).T.
    return right.rmatmat(np.asarray(left, dtype=np.float64).T).T


def _aggregate(node: Aggregate, x):
    mean = node.op == "mean"
    if node.axis is None:
        total = x.sum()
        cells = x.shape[0] * x.shape[1]
        return np.array([[total / cells if mean else total]])
    if node.axis == 0:
        out = np.asarray(x.colsums(), dtype=np.float64).reshape(1, -1)
        return out / x.shape[0] if mean else out
    out = np.asarray(x.rowsums(), dtype=np.float64).reshape(-1, 1)
    return out / x.shape[1] if mean else out
