"""Unit tests for the compiler passes (rewrites, mmchain, CSE, fusion, cost)."""

import numpy as np
import pytest

from repro.compiler import (
    apply_fusion,
    apply_rewrites,
    compile_expr,
    count_tree_ops,
    count_unique_ops,
    estimate,
    fused_kinds,
    optimize_mmchains,
)
from repro.compiler.cse import hash_cons
from repro.lang import (
    Aggregate,
    Binary,
    Constant,
    Data,
    Fused,
    MExpr,
    MatMul,
    Transpose,
    Unary,
    matrix,
    pretty,
    sumall,
    trace,
)
from repro.lang.ast import AGG_OPS, EWISE_OPS, UNARY_OPS


class TestRewrites:
    def test_double_transpose_eliminated(self):
        X = matrix("X", (5, 4))
        out = apply_rewrites(X.T.T.node)
        assert isinstance(out, Data)

    def test_add_zero_eliminated(self):
        X = matrix("X", (5, 4))
        out = apply_rewrites((X + 0).node)
        assert isinstance(out, Data)

    def test_mul_one_eliminated(self):
        X = matrix("X", (5, 4))
        assert isinstance(apply_rewrites((1 * X).node), Data)
        assert isinstance(apply_rewrites((X * 1).node), Data)

    def test_mul_zero_becomes_constant(self):
        X = matrix("X", (5, 4))
        out = apply_rewrites((X * 0).node)
        assert isinstance(out, Constant)
        assert not out.value.any()

    def test_pow_one_and_zero(self):
        X = matrix("X", (3, 3))
        assert isinstance(apply_rewrites((X**1).node), Data)
        out = apply_rewrites((X**0).node)
        assert isinstance(out, Constant)
        assert np.all(out.value == 1.0)

    def test_div_one_eliminated(self):
        X = matrix("X", (5, 4))
        assert isinstance(apply_rewrites((X / 1).node), Data)

    def test_constant_folding(self):
        out = apply_rewrites((MExpr(Constant(2.0)) + 3.0).node)
        assert isinstance(out, Constant)
        assert out.scalar_value == 5.0

    def test_constant_folding_matmul(self):
        A = MExpr(Constant(np.ones((2, 3))))
        B = MExpr(Constant(np.ones((3, 2))))
        out = apply_rewrites((A @ B).node)
        assert isinstance(out, Constant)
        assert np.all(out.value == 3.0)

    def test_trace_rewrite_removes_matmul(self):
        A = matrix("A", (10, 20))
        B = matrix("B", (20, 10))
        out = apply_rewrites(trace(A @ B).node)
        assert not any(isinstance(n, MatMul) for n in _walk(out))

    def test_sum_of_transpose(self):
        X = matrix("X", (5, 4))
        out = apply_rewrites(sumall(X.T).node)
        assert isinstance(out, Aggregate)
        assert isinstance(out.child, Data)

    def test_sum_distributes_over_add(self):
        X = matrix("X", (5, 4))
        Y = matrix("Y", (5, 4))
        out = apply_rewrites(sumall(X + Y).node)
        assert isinstance(out, Binary)
        assert out.op == "+"

    def test_sum_does_not_distribute_over_broadcast_add(self):
        X = matrix("X", (5, 4))
        v = matrix("v", (5, 1))
        out = apply_rewrites(sumall(X + v).node)
        # Broadcasting changes multiplicity: must NOT rewrite to sum(X)+sum(v).
        assert isinstance(out, Aggregate)

    def test_scalar_pulled_out_of_sum(self):
        X = matrix("X", (5, 4))
        out = apply_rewrites(sumall(X * 3.0).node)
        assert isinstance(out, Binary)
        assert out.op == "*"

    def test_scalar_pulled_out_of_matmul(self):
        X = matrix("X", (5, 4))
        Y = matrix("Y", (4, 3))
        out = apply_rewrites(((X * 2.0) @ Y).node)
        assert isinstance(out, Binary) and out.op == "*"
        assert any(isinstance(n, MatMul) for n in _walk(out))

    def test_neg_neg_eliminated(self):
        X = matrix("X", (5, 4))
        assert isinstance(apply_rewrites((-(-X)).node), Data)

    def test_rewrites_preserve_semantics(self, rng):
        X = matrix("X", (6, 4))
        Y = matrix("Y", (6, 4))
        expr = sumall((X + 0) * 1 + (Y - 0)) + trace(
            matrix("A", (3, 5)) @ matrix("B", (5, 3))
        )
        from repro.runtime import execute

        bindings = {
            "X": rng.standard_normal((6, 4)),
            "Y": rng.standard_normal((6, 4)),
            "A": rng.standard_normal((3, 5)),
            "B": rng.standard_normal((5, 3)),
        }
        naive = execute(
            compile_expr(expr, rewrites=False, mmchain=False, fusion=False, cse=False),
            bindings,
        )
        optimized = execute(compile_expr(expr), bindings)
        assert naive == pytest.approx(optimized)

    @pytest.mark.parametrize(
        "kind",
        [f"binary:{op}" for op in sorted(EWISE_OPS)]
        + ["binary:^ 1x1"]
        + [f"unary:{op}" for op in sorted(UNARY_OPS)]
        + [f"aggregate:{op}:{axis}" for op in sorted(AGG_OPS - {"trace"})
           for axis in (None, 0, 1)]
        + ["aggregate:trace:None", "transpose", "matmul"],
    )
    def test_folding_computes_the_executors_bytes(self, kind):
        """A folded constant holds exactly what the executor computes
        for the same node over the same constants, rewrites off."""
        from repro.runtime import execute

        rng = np.random.default_rng(11)
        a, b = (Constant(rng.uniform(0.25, 3.0, (4, 4))) for _ in range(2))
        family, _, op = kind.partition(":")
        if family == "binary":
            right = Constant(np.array([[0.7]])) if op == "^ 1x1" else b
            node = Binary(op.split()[0], a, right)
        elif family == "unary":  # signed values where the op allows
            signed = op != "sqrt"
            node = Unary(op, Constant(a.value - 1.5) if signed else a)
        elif family == "aggregate":
            op, axis = op.split(":")
            node = Aggregate(op, a, None if axis == "None" else int(axis))
        else:
            node = Transpose(a) if family == "transpose" else MatMul(a, b)
        folded = apply_rewrites(node)
        assert isinstance(folded, Constant)
        plan = compile_expr(
            node, rewrites=False, mmchain=False, fusion=False, cse=False
        )
        executed = np.asarray(execute(plan, {}), dtype=np.float64)
        assert folded.value.tobytes() == executed.tobytes()


class TestMMChain:
    def test_optimal_order_for_thin_product(self):
        # (M1 @ M2) @ v is terrible; M1 @ (M2 @ v) is optimal.
        M1 = matrix("M1", (100, 10))
        M2 = matrix("M2", (10, 100))
        v = matrix("v", (100, 1))
        out = optimize_mmchains(((M1 @ M2) @ v).node)
        assert isinstance(out, MatMul)
        assert isinstance(out.left, Data)  # M1 on the outside
        assert isinstance(out.right, MatMul)

    def test_cost_reduced(self):
        M1 = matrix("M1", (100, 10))
        M2 = matrix("M2", (10, 100))
        v = matrix("v", (100, 1))
        bad = ((M1 @ M2) @ v).node
        good = optimize_mmchains(bad)
        assert estimate(good).flops < estimate(bad).flops / 10

    def test_semantics_preserved(self, rng):
        from repro.runtime import execute

        M1 = matrix("M1", (30, 5))
        M2 = matrix("M2", (5, 30))
        M3 = matrix("M3", (30, 2))
        expr = (M1 @ M2) @ M3
        bindings = {
            "M1": rng.standard_normal((30, 5)),
            "M2": rng.standard_normal((5, 30)),
            "M3": rng.standard_normal((30, 2)),
        }
        ref = bindings["M1"] @ bindings["M2"] @ bindings["M3"]
        out = execute(compile_expr(expr), bindings)
        assert np.allclose(out, ref)

    def test_two_operand_chain_untouched(self):
        X = matrix("X", (5, 4))
        Y = matrix("Y", (4, 3))
        out = optimize_mmchains((X @ Y).node)
        assert pretty(out) == "(X %*% Y)"


class TestCSE:
    def test_shared_subtrees_become_same_object(self):
        X = matrix("X", (5, 4))
        w = matrix("w", (4, 1))
        Xw1 = X @ w
        Xw2 = X @ w
        root = hash_cons([(sumall(Xw1) + sumall(Xw2)).node])[0]
        assert root.left.child is root.right.child

    def test_op_counts(self):
        X = matrix("X", (5, 4))
        w = matrix("w", (4, 1))
        expr = sumall(X @ w) + sumall(X @ w)
        root = expr.node
        assert count_tree_ops(root) == 5  # 2 matmul + 2 sum + 1 add
        deduped = hash_cons([root])[0]
        assert count_unique_ops(deduped) == 3  # matmul + sum + add

    def test_execution_counts_shared_once(self, rng):
        from repro.runtime import execute

        X = matrix("X", (5, 4))
        w = matrix("w", (4, 1))
        expr = sumall(X @ w) + sumall(X @ w)
        plan = compile_expr(expr, rewrites=False, mmchain=False, fusion=False)
        _, stats = execute(
            plan,
            {"X": rng.standard_normal((5, 4)), "w": rng.standard_normal(4)},
            collect_stats=True,
        )
        assert stats.op_counts["matmul"] == 1


class TestFusion:
    def test_sq_sum_fused(self):
        X = matrix("X", (5, 4))
        out = apply_fusion(sumall(X**2).node)
        assert isinstance(out, Fused)
        assert out.kind == "sq_sum"

    def test_diff_sq_sum_fused(self):
        X = matrix("X", (5, 4))
        Y = matrix("Y", (5, 4))
        out = apply_fusion(sumall((X - Y) ** 2).node)
        assert out.kind == "diff_sq_sum"

    def test_dot_sum_fused(self):
        X = matrix("X", (5, 4))
        Y = matrix("Y", (5, 4))
        out = apply_fusion(sumall(X * Y).node)
        assert out.kind == "dot_sum"

    def test_dot_sum_not_fused_on_broadcast(self):
        X = matrix("X", (5, 4))
        v = matrix("v", (5, 1))
        out = apply_fusion(sumall(X * v).node)
        assert not isinstance(out, Fused)

    def test_tsmm_fused(self):
        X = matrix("X", (5, 4))
        out = apply_fusion((X.T @ X).node)
        assert out.kind == "tsmm"
        assert out.shape == (4, 4)

    def test_tsmm_not_fused_for_different_operands(self):
        X = matrix("X", (5, 4))
        Y = matrix("Y", (5, 4))
        out = apply_fusion((X.T @ Y).node)
        assert not isinstance(out, Fused)

    def test_mvchain_fused(self):
        X = matrix("X", (100, 10))
        v = matrix("v", (10, 1))
        out = apply_fusion((X.T @ (X @ v)).node)
        assert out.kind == "mvchain"
        assert out.shape == (10, 1)

    def test_fused_kinds_listing(self):
        X = matrix("X", (5, 4))
        plan = compile_expr(sumall(X**2), mmchain=False)
        assert fused_kinds(plan.root) == ["sq_sum"]

    @pytest.mark.parametrize(
        "builder",
        [
            lambda X, Y: sumall(X**2),
            lambda X, Y: sumall((X - Y) ** 2),
            lambda X, Y: sumall(X * Y),
            lambda X, Y: X.T @ X,
        ],
        ids=["sq_sum", "diff_sq_sum", "dot_sum", "tsmm"],
    )
    def test_fused_semantics(self, builder, rng):
        from repro.runtime import execute

        X = matrix("X", (20, 6))
        Y = matrix("Y", (20, 6))
        expr = builder(X, Y)
        bindings = {
            "X": rng.standard_normal((20, 6)),
            "Y": rng.standard_normal((20, 6)),
        }
        naive = execute(
            compile_expr(expr, rewrites=False, mmchain=False, fusion=False, cse=False),
            bindings,
        )
        fused = execute(compile_expr(expr), bindings)
        assert np.allclose(np.asarray(naive), np.asarray(fused))


class TestCostModel:
    def test_matmul_flops(self):
        X = matrix("X", (10, 20))
        Y = matrix("Y", (20, 5))
        cost = estimate((X @ Y).node)
        assert cost.flops == 2 * 10 * 20 * 5

    def test_inputs_are_free(self):
        X = matrix("X", (10, 20))
        cost = estimate(X.node)
        assert cost.flops == 0
        assert cost.num_ops == 0

    def test_shared_nodes_counted_once(self):
        X = matrix("X", (5, 4))
        w = matrix("w", (4, 1))
        expr = sumall(X @ w) + sumall(X @ w)
        tree_cost = estimate(expr.node)
        dag_cost = estimate(hash_cons([expr.node])[0])
        assert dag_cost.flops < tree_cost.flops


class TestPlanner:
    def test_explain_mentions_passes_and_costs(self):
        X = matrix("X", (50, 10))
        v = matrix("v", (10, 1))
        plan = compile_expr(X.T @ (X @ v))
        text = plan.explain()
        assert "rewrites" in text
        assert "flops" in text
        assert "plan" in text

    def test_passes_can_be_disabled(self):
        X = matrix("X", (5, 4))
        plan = compile_expr(
            sumall(X**2), rewrites=False, mmchain=False, fusion=False, cse=False
        )
        assert plan.passes == []
        assert not isinstance(plan.root, Fused)

    def test_inputs_recorded(self):
        X = matrix("X", (5, 4))
        y = matrix("y", (5, 1))
        plan = compile_expr(X.T @ y)
        assert plan.inputs == {"X": (5, 4), "y": (5, 1)}


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)
