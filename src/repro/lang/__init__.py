"""Declarative linear-algebra DSL (the 'DML' layer of the reproduction).

Build lazy matrix expressions with :func:`matrix` and the operators on
:class:`MExpr`; compile them with :mod:`repro.compiler` and
run them with :mod:`repro.runtime`.
"""

from .ast import (
    AGG_OPS,
    EWISE_OPS,
    UNARY_OPS,
    Aggregate,
    Binary,
    Constant,
    Data,
    Fused,
    MatMul,
    Node,
    Transpose,
    Unary,
    collect_inputs,
    pretty,
    unique_nodes,
    walk,
)
from .dsl import (
    MExpr,
    colmeans,
    exp,
    matrix,
    rowsums,
    sigmoid,
    sqrt,
    sumall,
    trace,
)

__all__ = [
    "AGG_OPS",
    "EWISE_OPS",
    "UNARY_OPS",
    "Aggregate",
    "Binary",
    "Constant",
    "Data",
    "Fused",
    "MExpr",
    "MatMul",
    "Node",
    "Transpose",
    "Unary",
    "colmeans",
    "collect_inputs",
    "exp",
    "matrix",
    "pretty",
    "rowsums",
    "sigmoid",
    "sqrt",
    "sumall",
    "trace",
    "unique_nodes",
    "walk",
]
