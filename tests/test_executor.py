"""Unit and property tests for the runtime executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compiler import compile_expr
from repro.compression import CompressedMatrix
from repro.errors import ExecutionError
from repro.features import FeatureView
from repro.lang import colmeans, exp, matrix, rowsums, sigmoid, sqrt, sumall
from repro.runtime import execute
from repro.sparse import CSRMatrix


@pytest.fixture
def bindings(rng):
    return {
        "X": rng.standard_normal((8, 5)),
        "Y": rng.standard_normal((8, 5)),
        "v": rng.standard_normal(5),
        "u": rng.standard_normal(8),
    }


class TestBasicExecution:
    def test_scalar_result_is_python_float(self, bindings):
        X = matrix("X", (8, 5))
        out = execute(sumall(X), bindings)
        assert isinstance(out, float)
        assert out == pytest.approx(bindings["X"].sum())

    def test_matrix_result(self, bindings):
        X = matrix("X", (8, 5))
        v = matrix("v", (5, 1))
        out = execute(X @ v, bindings)
        assert out.shape == (8, 1)
        assert np.allclose(out[:, 0], bindings["X"] @ bindings["v"])

    def test_1d_vector_binding_reshaped(self, bindings):
        v = matrix("v", (5, 1))
        out = execute(sumall(v), bindings)
        assert out == pytest.approx(bindings["v"].sum())

    def test_scalar_binding(self):
        s = matrix("s", (1, 1))
        assert execute(s * 2, {"s": 3.0}) == 6.0

    def test_missing_binding(self, bindings):
        X = matrix("X", (8, 5))
        Z = matrix("Z", (8, 5))
        with pytest.raises(ExecutionError, match="missing binding"):
            execute(X + Z, bindings)

    def test_wrong_shape_binding(self):
        X = matrix("X", (8, 5))
        with pytest.raises(ExecutionError, match="declared"):
            execute(sumall(X), {"X": np.ones((3, 3))})

    def test_non_numeric_binding_names_the_input(self):
        X = matrix("X", (2, 2))
        with pytest.raises(ExecutionError, match="input 'X' is not numeric"):
            execute(X + 1, {"X": "abc"})

    def test_axis_aggregates(self, bindings):
        X = matrix("X", (8, 5))
        assert np.allclose(
            execute(rowsums(X), bindings)[:, 0], bindings["X"].sum(axis=1)
        )
        assert np.allclose(
            execute(colmeans(X), bindings)[0], bindings["X"].mean(axis=0)
        )

    def test_unary_chain(self, bindings):
        X = matrix("X", (8, 5))
        out = execute(sigmoid(X), bindings)
        assert np.all((out > 0) & (out < 1))
        out2 = execute(exp(X), bindings)
        assert np.allclose(out2, np.exp(bindings["X"]))

    def test_sqrt(self, bindings):
        X = matrix("X", (8, 5))
        out = execute(sqrt(X * X), bindings)
        assert np.allclose(out, np.abs(bindings["X"]))

    def test_stats_collection(self, bindings):
        X = matrix("X", (8, 5))
        v = matrix("v", (5, 1))
        _, stats = execute(
            compile_expr(X @ v, fusion=False), bindings, collect_stats=True
        )
        assert stats.op_counts["matmul"] == 1
        assert stats.flops == 2 * 8 * 5 * 1

    def test_raw_expression_compiled_on_the_fly(self, bindings):
        X = matrix("X", (8, 5))
        assert execute(sumall(X), bindings) == pytest.approx(bindings["X"].sum())


N, D, K = 48, 4, 3


def _operand(X, kind):
    if kind == "cla":
        return CompressedMatrix.compress(X)
    return CSRMatrix.from_dense(X) if kind == "csr" else X


def _probe(name, kind):
    """A feature view's plan, or one of E19's two probe plans (the
    logistic gradient, the k-means distances), over one operand kind."""
    rng = np.random.default_rng(7)
    X = np.round(rng.standard_normal((N, D))) * (rng.random((N, D)) < 0.5)
    if name == "logreg":
        Xm, wm, ym = matrix("X", (N, D)), matrix("w", (D, 1)), matrix("y", (N, 1))
        plan = compile_expr(Xm.T @ (sigmoid(Xm @ wm) - ym) / N)
        y = (X[:, :1] > 0).astype(float)
        return plan, {"X": _operand(X, kind), "w": np.full((D, 1), 0.25), "y": y}
    if name == "kmeans":
        Xm, Cm = matrix("X", (N, D)), matrix("C", (K, D))
        plan = compile_expr(
            rowsums(Xm**2) - 2.0 * (Xm @ Cm.T) + rowsums(Cm**2).T
        )
        return plan, {"X": _operand(X, kind), "C": X[:K].copy()}
    view = FeatureView("probe", "entity", {
        "x0": lambda c: c.x0,
        "cross": lambda c: c.x0 * c.x1,
        "shifted": lambda c: c.x2 + 1.5,
    })
    columns = {f"x{j}": _operand(X[:, j : j + 1], kind) for j in range(3)}
    return view._plan_for(N), columns


class TestPinnedStats:
    """What an execution reports is the plan's work, not the interpreter's
    shape: these are the recursive interpreter's figures, which the
    scheduled loop must repeat field for field."""

    #: each plan's op_counts and flops, whatever its operands' kind
    OPS = {
        "view": ({"binary:*": 1, "binary:+": 1}, 96),
        "logreg": ({"transpose": 1, "matmul": 2, "unary:sigmoid": 1,
                    "binary:-": 1, "binary:/": 1}, 1060),
        "kmeans": ({"binary:^": 2, "agg:sum": 2, "transpose": 2, "matmul": 1,
                    "binary:*": 1, "binary:-": 1, "binary:+": 1}, 2007),
    }
    #: intermediate_bytes, native_repr_ops, densify_fallbacks, converts
    BY_KIND = {
        ("view", "dense"): (768, {}, {}, {}),
        ("view", "cla"): (480, {"binary:+[cla]": 1}, {"binary:*": 2},
                          {"cla->dense(output)": 2}),
        ("view", "csr"): (768, {}, {"binary:*": 2, "binary:+": 1},
                          {"csr->dense(output)": 1}),
        ("logreg", "dense"): (2752, {}, {}, {}),
        ("logreg", "cla"): (
            1576, {"transpose[cla]": 1, "matmul[cla]": 2}, {}, {}),
        ("logreg", "csr"): (
            2504, {"transpose[csr]": 1, "matmul[csr]": 2}, {}, {}),
        ("kmeans", "dense"): (6768, {}, {}, {}),
        ("kmeans", "cla"): (5592, {
            "binary:^[cla]": 1, "agg:sum[cla]": 1, "matmul[cla]": 1}, {}, {}),
        ("kmeans", "csr"): (6520, {
            "binary:^[csr]": 1, "agg:sum[csr]": 1, "matmul[csr]": 1}, {}, {}),
    }

    @pytest.mark.parametrize("name,kind", list(BY_KIND))
    def test_stats_match_the_pinned_figures(self, name, kind):
        plan, bindings = _probe(name, kind)
        pinned = (*self.OPS[name], *self.BY_KIND[name, kind])
        for _ in range(2):  # the first run builds the schedule, then reuse
            _, stats = execute(plan, bindings, collect_stats=True)
            assert pinned == (
                stats.op_counts, stats.flops, stats.intermediate_bytes,
                stats.native_repr_ops, stats.densify_fallbacks,
                stats.converts,
            )

    def test_each_op_is_a_span_under_tracing(self):
        obs.set_tracing(True)
        plan, bindings = _probe("kmeans", "csr")
        execute(plan, bindings)
        (root,) = [r for r in obs.span_roots() if r.name == "executor.execute"]
        ops = [c.attrs["op"] for c in root.children if c.name == "executor.op"]
        counts = {op: ops.count(op) for op in ops}
        assert counts == self.OPS["kmeans"][0]


class TestOptimizationEquivalence:
    """The optimizer must never change results — property-checked."""

    @staticmethod
    def _random_expression(draw_ops, n, d):
        X = matrix("X", (n, d))
        Y = matrix("Y", (n, d))
        v = matrix("v", (d, 1))
        expr = X
        for op in draw_ops:
            if op == 0:
                expr = expr + Y
            elif op == 1:
                expr = expr * Y
            elif op == 2:
                expr = expr - Y
            elif op == 3:
                expr = expr * 2.0
            elif op == 4:
                expr = expr + 1.0
        # End with something scalar so comparison is easy.
        return sumall(expr) + sumall((X @ v) ** 2) + sumall(X.T.T * Y)

    @given(
        ops=st.lists(st.integers(0, 4), min_size=0, max_size=6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_optimized_equals_naive(self, ops, seed):
        n, d = 6, 4
        expr = self._random_expression(ops, n, d)
        rng = np.random.default_rng(seed)
        bindings = {
            "X": rng.standard_normal((n, d)),
            "Y": rng.standard_normal((n, d)),
            "v": rng.standard_normal(d),
        }
        naive = execute(
            compile_expr(expr, rewrites=False, mmchain=False, fusion=False, cse=False),
            bindings,
        )
        optimized = execute(compile_expr(expr), bindings)
        assert np.isclose(naive, optimized, rtol=1e-9, atol=1e-9)

    @given(
        n=st.integers(2, 10),
        k=st.integers(1, 8),
        m=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_mmchain_any_dims(self, n, k, m, seed):
        rng = np.random.default_rng(seed)
        A = matrix("A", (n, k))
        B = matrix("B", (k, m))
        C = matrix("C", (m, 3))
        bindings = {
            "A": rng.standard_normal((n, k)),
            "B": rng.standard_normal((k, m)),
            "C": rng.standard_normal((m, 3)),
        }
        ref = bindings["A"] @ bindings["B"] @ bindings["C"]
        out = execute(compile_expr((A @ B) @ C), bindings)
        assert np.allclose(out, ref)


class TestGLMProgramEndToEnd:
    def test_linear_regression_gradient_program(self, rng):
        """A full GD loop driven through the compiled DSL converges."""
        n, d = 200, 5
        Xv = rng.standard_normal((n, d))
        w_true = rng.standard_normal(d)
        yv = Xv @ w_true

        X = matrix("X", (n, d))
        y = matrix("y", (n, 1))
        w = matrix("w", (d, 1))
        grad_plan = compile_expr((X.T @ (X @ w) - X.T @ y) / n)
        loss_plan = compile_expr(sumall((X @ w - y) ** 2) / n)

        wv = np.zeros(d)
        for _ in range(300):
            g = execute(grad_plan, {"X": Xv, "y": yv, "w": wv})
            wv = wv - 0.1 * g[:, 0]
        assert np.allclose(wv, w_true, atol=1e-3)
        assert execute(loss_plan, {"X": Xv, "y": yv, "w": wv}) < 1e-5
