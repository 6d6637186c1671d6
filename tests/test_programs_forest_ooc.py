"""Tests for multi-output plans, feature hashing, and out-of-core
training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms import linreg_direct, pca_dsl
from repro.compiler import (
    FeedbackStore,
    compile_expr,
    count_unique_ops,
    feedback_scope,
    plan_representations,
)
from repro.compression import CompressedMatrix
from repro.data import make_regression
from repro.errors import CompilerError, ExecutionError, NotFittedError
from repro.lang import colmeans, matrix, rowsums, sigmoid, sumall
from repro.ml.linreg import Moments
from repro.runtime import OutOfCoreLinearRegression, execute
from repro.sparse import CSRMatrix


class TestProgramCompilation:
    def _loss_grad_program(self, n=200, d=8):
        X = matrix("X", (n, d))
        w = matrix("w", (d, 1))
        y = matrix("y", (n, 1))
        residual = X @ w - y
        return compile_expr(
            {"loss": sumall(residual**2) / n, "grad": X.T @ residual / n}
        )

    def test_outputs_correct(self, rng):
        n, d = 200, 8
        program = self._loss_grad_program(n, d)
        b = {
            "X": rng.standard_normal((n, d)),
            "w": rng.standard_normal(d),
            "y": rng.standard_normal(n),
        }
        out = execute(program, b)
        residual = b["X"] @ b["w"] - b["y"]
        assert isinstance(out["loss"], float)  # scalar outputs are floats
        assert out["loss"] == pytest.approx(float(residual @ residual) / n)
        assert np.allclose(out["grad"][:, 0], b["X"].T @ residual / n)

    def test_shared_subexpressions_evaluated_once(self, rng):
        n, d = 100, 5
        program = self._loss_grad_program(n, d)
        b = {
            "X": rng.standard_normal((n, d)),
            "w": rng.standard_normal(d),
            "y": rng.standard_normal(n),
        }
        _, stats = execute(program, b, collect_stats=True)
        # The residual subtraction appears in both outputs but runs once.
        assert stats.op_counts["binary:-"] == 1
        # X@w once, X.T@residual once.
        assert stats.op_counts["matmul"] == 2

    def test_cse_shares_across_outputs_vs_separate_compiles(self):
        n, d = 50, 4
        X = matrix("X", (n, d))
        w = matrix("w", (d, 1))
        y = matrix("y", (n, 1))
        residual = X @ w - y
        program = compile_expr(
            {"a": sumall(residual**2), "b": sumall(residual)}
        )
        separate = count_unique_ops(
            compile_expr(sumall(residual**2)).root
        ) + count_unique_ops(compile_expr(sumall(residual)).root)
        assert program.num_ops < separate

    def test_conflicting_input_shapes_rejected(self):
        a = matrix("X", (5, 4))
        b = matrix("X", (6, 4))
        with pytest.raises(CompilerError, match="conflicting"):
            compile_expr({"a": sumall(a), "b": sumall(b)})

    def test_empty_program_rejected(self):
        with pytest.raises(CompilerError):
            compile_expr({})

    def test_gd_driver_via_program(self, rng):
        """A GD loop using the loss+grad program converges."""
        n, d = 300, 6
        Xv = rng.standard_normal((n, d))
        w_true = rng.standard_normal(d)
        yv = Xv @ w_true
        program = self._loss_grad_program(n, d)
        wv = np.zeros(d)
        for _ in range(400):
            out = execute(program, {"X": Xv, "w": wv, "y": yv})
            wv = wv - 0.5 * out["grad"][:, 0]
        assert np.allclose(wv, w_true, atol=1e-3)


# Hypothesis: random expressions over three shared square inputs.
_SIDE = 5
_EXPRS = st.recursive(
    st.sampled_from(["A", "B", "C"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "@"]), sub, sub),
        st.tuples(st.sampled_from(["t", "neg", "sigmoid", "rowsums"]), sub),
    ),
    max_leaves=6,
)


def _build(spec):
    if isinstance(spec, str):
        return matrix(spec, (_SIDE, _SIDE))
    op, *args = spec
    args = [_build(a) for a in args]
    if op == "t":
        return args[0].T
    if op == "neg":
        return -args[0]
    if op == "sigmoid":
        return sigmoid(args[0])
    if op == "rowsums":  # broadcast back so every node stays square
        return rowsums(args[0]) + args[0]
    a, b = args
    return {"+": a + b, "-": a - b, "*": a * b, "@": a @ b}[op]


def _run(plan, bindings):
    return execute(plan, {name: bindings[name] for name in plan.inputs})


def _executor_counters():
    return {
        name: obs.get_registry().value(name)
        for name in obs.get_registry().as_dict()["counters"]
        if name.startswith("executor.")
    }


class TestMultiOutputRunsTheOnePath:
    """A plan with named outputs is an ordinary plan to every layer the
    executor feeds: registry, spans, feedback, reprplan, reuse."""

    @given(
        first=_EXPRS,
        second=_EXPRS,
        scalar=st.booleans(),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_the_single_output_results_and_ops_counted_once(
        self, first, second, scalar, seed
    ):
        rng = np.random.default_rng(seed)
        b = {k: rng.standard_normal((_SIDE, _SIDE)) for k in "ABC"}
        e1, e2 = _build(first), _build(second)
        if scalar:
            e2 = sumall(e2)
        alone = {"p": _run(compile_expr(e1), b), "q": _run(compile_expr(e2), b)}
        plan = compile_expr({"p": e1, "q": e2})
        before = obs.get_registry().value("executor.ops")
        out = _run(plan, b)
        assert obs.get_registry().value("executor.ops") - before == plan.num_ops
        assert plan.num_ops == count_unique_ops(*plan.outputs.values())
        assert set(out) == {"p", "q"}
        assert np.array_equal(out["p"], alone["p"])
        assert np.array_equal(out["q"], alone["q"])
        assert isinstance(out["q"], float) == scalar

    def test_one_span_one_execution_one_feedback_update(self, rng):
        n, d = 60, 4
        X, w, y = matrix("X", (n, d)), matrix("w", (d, 1)), matrix("y", (n, 1))
        residual = X @ w - y
        exprs = {"loss": sumall(residual**2) / n, "grad": X.T @ residual / n}
        b = {
            "X": rng.standard_normal((n, d)),
            "w": rng.standard_normal(d),
            "y": rng.standard_normal(n),
        }
        single = compile_expr(exprs["grad"])
        obs.set_tracing(True)
        with feedback_scope(FeedbackStore()):
            _, one = execute(single, b, collect_stats=True)
            moved_by_one = _executor_counters()
            obs.reset()
            _, stats = execute(compile_expr(exprs), b, collect_stats=True)
        spans = [r for r in obs.span_roots() if r.name == "executor.execute"]
        assert len(spans) == 1
        assert obs.get_registry().value("feedback.updates") == 1
        moved = _executor_counters()
        assert moved["executor.executions"] == moved_by_one["executor.executions"] == 1
        assert moved["executor.ops"] == stats.total_ops > one.total_ops
        assert moved["executor.flops"] == stats.flops > one.flops
        assert moved["executor.intermediate_bytes"] == stats.intermediate_bytes
        assert set(moved) == set(moved_by_one)

    def test_reprplan_over_csr_and_cla_bindings(self, rng):
        n, d = 400, 16
        dense = {
            "S": rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.05),
            "C": np.round(rng.standard_normal((n, d)) * 2),
            "w": rng.standard_normal(d),
        }
        Sm, Cm, wm = matrix("S", (n, d)), matrix("C", (n, d)), matrix("w", (d, 1))
        # S arrives as CSR and stays; C arrives dense and is planned CLA,
        # so its reads go through an inserted Convert
        bound = {**dense, "S": CSRMatrix.from_dense(dense["S"])}
        plan = plan_representations(
            compile_expr(
                {
                    "cw": Cm @ wm,
                    "sc": Sm @ wm + Cm @ wm,
                    "s": Sm.T @ (Sm @ wm),
                }
            ),
            bound,
        )
        assert "reprplan" in plan.passes
        assert plan.repr_plan.choices["C"].representation == "cla"
        b = {**bound, "C": CompressedMatrix.compress(dense["C"])}
        cold, s1 = execute(plan, b, collect_stats=True)
        assert s1.fallback_count == 0
        # C %*% w is still one node under the Convert both outputs read
        assert s1.op_counts["matmul"] == 2
        reference = execute(plan, dense, representation="dense")
        for name in plan.outputs:
            assert np.allclose(cold[name], reference[name], atol=1e-9)

    def test_production_callers_keep_their_bytes_and_share_colmeans(self, rng):
        """pca_dsl / linreg_direct against the two-plans-two-executions
        spelling they had before (kept here as the oracle)."""
        n, d = 300, 9
        X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
        Xm, ym = matrix("X", (n, d)), matrix("y", (n, 1))

        centered = Xm - colmeans(Xm)
        cov, s1 = execute(
            centered.T @ centered / (n - 1), {"X": X}, collect_stats=True
        )
        mean, s2 = execute(colmeans(Xm), {"X": X}, collect_stats=True)
        result = pca_dsl(X, d)
        assert np.array_equal(result.mean, mean[0])
        eigenvalues = np.maximum(np.sort(np.linalg.eigh(cov)[0])[::-1], 0.0)
        assert np.array_equal(result.explained_variance, eigenvalues)
        # exactly the shared colmeans operator is no longer run twice
        assert result.flops_executed == s1.flops + s2.flops - n * d
        assert result.flops_executed < s1.flops + s2.flops

        gram = execute(Xm.T @ Xm, {"X": X})
        xty = execute(Xm.T @ ym, {"X": X, "y": y})
        for l2 in (0.0, 0.1):
            oracle = Moments(gram, xty[:, 0], np.nan, n).solve(l2)
            assert np.array_equal(linreg_direct(X, y, l2=l2).weights, oracle)


class TestOutOfCore:
    def test_matches_in_memory_solution(self):
        X, y, w_true = make_regression(3000, 6, noise=0.0, seed=103)
        model = OutOfCoreLinearRegression(
            epochs=400, block_rows=256, tol=1e-14
        ).fit(X, y)
        assert np.allclose(model.coef_, w_true, atol=1e-4)
        assert model.score(X, y) > 0.9999

    def test_converges_under_memory_pressure(self):
        X, y, w_true = make_regression(3000, 6, noise=0.0, seed=104)
        model = OutOfCoreLinearRegression(
            epochs=400,
            block_rows=256,
            memory_budget_bytes=X.nbytes // 5,
            tol=1e-14,
        ).fit(X, y)
        assert np.allclose(model.coef_, w_true, atol=1e-4)
        # Thrash: every epoch re-reads the store.
        assert model.result_.pool_stats.hit_ratio == 0.0
        assert model.result_.bytes_read_from_store > X.nbytes * 2

    def test_fitting_pool_serves_epochs_from_cache(self):
        X, y, _ = make_regression(3000, 6, noise=0.0, seed=105)
        model = OutOfCoreLinearRegression(epochs=50, block_rows=256).fit(X, y)
        assert model.result_.pool_stats.hit_ratio > 0.9
        assert model.result_.bytes_read_from_store <= X.nbytes * 1.01

    def test_loss_history_decreases(self):
        X, y, _ = make_regression(1000, 4, seed=106)
        model = OutOfCoreLinearRegression(epochs=30).fit(X, y)
        history = model.result_.loss_history
        assert history[-1] < history[0]

    def test_validation(self):
        with pytest.raises(ExecutionError):
            OutOfCoreLinearRegression().fit(np.ones((5, 2)), np.ones(3))
        with pytest.raises(NotFittedError):
            OutOfCoreLinearRegression().predict(np.ones((2, 2)))
