"""Unit tests for the linear-algebra DSL (repro.lang)."""

import numpy as np
import pytest

from repro.errors import CompilerError, ShapeError
from repro.lang import (
    Aggregate,
    Binary,
    Constant,
    Data,
    MatMul,
    Transpose,
    Unary,
    collect_inputs,
    colmeans,
    matrix,
    pretty,
    rowsums,
    sumall,
    trace,
)


class TestShapes:
    def test_matrix_declaration(self):
        X = matrix("X", (10, 3))
        assert X.shape == (10, 3)
        assert not X.is_scalar

    def test_positive_dims_required(self):
        with pytest.raises(ShapeError):
            matrix("X", (0, 3))

    @pytest.mark.parametrize("shape", [(2.5, 2), (True, 2), (2, "2")])
    def test_dims_must_be_integers_not_truncated(self, shape):
        with pytest.raises(ShapeError, match="integer dims"):
            matrix("X", shape)

    def test_matmul_shape(self):
        X = matrix("X", (10, 3))
        Y = matrix("Y", (3, 7))
        assert (X @ Y).shape == (10, 7)

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            matrix("X", (10, 3)) @ matrix("Y", (4, 7))

    def test_transpose_shape(self):
        assert matrix("X", (10, 3)).T.shape == (3, 10)

    def test_elementwise_same_shape(self):
        X = matrix("X", (5, 4))
        Y = matrix("Y", (5, 4))
        assert (X + Y).shape == (5, 4)

    def test_scalar_broadcast(self):
        X = matrix("X", (5, 4))
        assert (X * 2).shape == (5, 4)
        assert (3 - X).shape == (5, 4)

    def test_column_vector_broadcast(self):
        X = matrix("X", (5, 4))
        v = matrix("v", (5, 1))
        assert (X * v).shape == (5, 4)

    def test_row_vector_broadcast(self):
        X = matrix("X", (5, 4))
        r = matrix("r", (1, 4))
        assert (X - r).shape == (5, 4)

    def test_incompatible_broadcast(self):
        with pytest.raises(ShapeError, match="broadcast"):
            matrix("X", (5, 4)) + matrix("Y", (3, 2))

    def test_aggregate_shapes(self):
        X = matrix("X", (5, 4))
        assert sumall(X).shape == (1, 1)
        assert colmeans(X).shape == (1, 4)
        assert rowsums(X).shape == (5, 1)

    def test_trace_requires_square(self):
        with pytest.raises(ShapeError, match="square"):
            trace(matrix("X", (3, 4)))

    def test_trace_of_square(self):
        assert trace(matrix("X", (4, 4))).is_scalar


class TestConstants:
    def test_scalar_constant(self):
        c = Constant(3.0)
        assert c.shape == (1, 1)
        assert c.scalar_value == 3.0

    def test_vector_constant_becomes_column(self):
        c = Constant([1.0, 2.0, 3.0])
        assert c.shape == (3, 1)

    def test_matrix_constant(self):
        c = Constant(np.ones((2, 3)))
        assert c.shape == (2, 3)

    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            Constant(np.ones((2, 2, 2)))

    def test_scalar_value_on_matrix_rejected(self):
        with pytest.raises(CompilerError):
            Constant(np.ones((2, 2))).scalar_value

    def test_unliftable_operand_is_a_compiler_error(self):
        with pytest.raises(CompilerError, match="cannot use str"):
            matrix("X", (2, 2)) + "a"


class TestStructuralIdentity:
    def test_identical_trees_same_key(self):
        X1 = matrix("X", (5, 4))
        X2 = matrix("X", (5, 4))
        assert (X1 @ X1.T).node.key() == (X2 @ X2.T).node.key()

    def test_different_ops_different_keys(self):
        X = matrix("X", (5, 4))
        assert (X + X).node.key() != (X * X).node.key()

    def test_constant_keys_use_values(self):
        assert Constant(1.0).key() != Constant(2.0).key()
        assert Constant(1.0).key() == Constant(1.0).key()


class TestIntrospection:
    def test_collect_inputs(self):
        X = matrix("X", (5, 4))
        y = matrix("y", (5, 1))
        inputs = collect_inputs((X.T @ y).node)
        assert inputs == {"X": (5, 4), "y": (5, 1)}

    def test_collect_inputs_conflicting_shapes(self):
        expr = Binary(
            "+",
            Aggregate("sum", Data("X", (5, 4))),
            Aggregate("sum", Data("X", (6, 4))),
        )
        with pytest.raises(CompilerError, match="conflicting"):
            collect_inputs(expr)

    def test_pretty_rendering(self):
        X = matrix("X", (5, 4))
        v = matrix("v", (4, 1))
        s = pretty((X @ v).node)
        assert s == "(X %*% v)"
        assert "t(X)" in pretty(X.T.node)
        assert "sum" in pretty(sumall(X).node)


class TestNodeRebuild:
    def test_with_children_reinfers_shape(self):
        X = Data("X", (5, 4))
        Y = Data("Y", (4, 3))
        node = MatMul(X, Y)
        rebuilt = node.with_children([X, Data("Z", (4, 7))])
        assert rebuilt.shape == (5, 7)

    def test_unary_unknown_op_rejected(self):
        with pytest.raises(CompilerError):
            Unary("tan", Data("X", (2, 2)))

    def test_aggregate_unknown_axis_rejected(self):
        with pytest.raises(CompilerError):
            Aggregate("sum", Data("X", (2, 2)), axis=2)

    def test_transpose_roundtrip_shape(self):
        X = Data("X", (5, 4))
        assert Transpose(Transpose(X)).shape == (5, 4)
