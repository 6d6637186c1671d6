"""Representation-aware execution: native kernels, planner, fallbacks.

Covers the PR-2 surface: ``execute`` over CompressedMatrix / CSRMatrix /
NormalizedMatrix bindings dispatching each physical operator to the
representation's native kernel, the compile-time representation planner
(Convert insertion + explain output), densification-fallback accounting,
dictionary-rewriting elementwise maps on compressed matrices, and two
hypothesis properties: any program from the supported-op subset matches
dense execution within 1e-9 with zero fallbacks, and over a wider pool
the planner predicts a densification exactly when the runtime performs
one (PR 18: both read ``repro.operand.serves``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_expr, plan_representations
from repro.compression import CompressedMatrix
from repro.errors import CompilerError, ExecutionError
from repro.factorized import NormalizedMatrix
from repro.lang import (
    colsums,
    exp,
    matrix,
    maxall,
    mean,
    rowsums,
    sigmoid,
    sumall,
)
from repro.lang.ast import Convert, Data
from repro.runtime import execute
from repro.sparse import CSRMatrix


def _make_dense(n=40, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, d)).astype(np.float64)


def _make_normalized(n=40, seed=0):
    rng = np.random.default_rng(seed)
    n_r = max(4, n // 5)
    S = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    R = rng.integers(0, 4, size=(n_r, 4)).astype(np.float64)
    fk = rng.integers(0, n_r, size=n)
    return NormalizedMatrix(S, [fk], [R])


def _representations(X):
    return {
        "cla": CompressedMatrix.compress(X),
        "csr": CSRMatrix.from_dense(X),
    }


# ----------------------------------------------------------------------
# Per-operator parity over every representation
# ----------------------------------------------------------------------
class TestOperatorParity:
    @pytest.mark.parametrize("rep_kind", ["cla", "csr", "factorized"])
    def test_matmul_and_transpose_matmul(self, rep_kind):
        if rep_kind == "factorized":
            rep = _make_normalized()
            X = rep.materialize()
        else:
            X = _make_dense()
            rep = _representations(X)[rep_kind]
        n, d = X.shape
        Xm = matrix("X", (n, d))
        Bm = matrix("B", (d, 3))
        Um = matrix("U", (n, 2))
        B = np.arange(d * 3, dtype=np.float64).reshape(d, 3)
        U = np.arange(n * 2, dtype=np.float64).reshape(n, 2)

        for expr, bindings in [
            (Xm @ Bm, {"X": X, "B": B}),
            (Xm.T @ Um, {"X": X, "U": U}),
            (Um.T @ Xm, {"X": X, "U": U}),
        ]:
            want = execute(expr, bindings)
            got, stats = execute(
                expr, {**bindings, "X": rep}, collect_stats=True
            )
            np.testing.assert_allclose(got, want, atol=1e-9)
            assert stats.fallback_count == 0
            assert any(
                k.startswith("matmul[") for k in stats.native_repr_ops
            )

    @pytest.mark.parametrize("rep_kind", ["cla", "csr", "factorized"])
    def test_sum_and_mean_aggregates(self, rep_kind):
        if rep_kind == "factorized":
            rep = _make_normalized(seed=1)
            X = rep.materialize()
        else:
            X = _make_dense(seed=1)
            rep = _representations(X)[rep_kind]
        n, d = X.shape
        Xm = matrix("X", (n, d))
        for expr in (sumall(Xm), mean(Xm), colsums(Xm), rowsums(Xm)):
            want = execute(expr, {"X": X})
            got, stats = execute(expr, {"X": rep}, collect_stats=True)
            np.testing.assert_allclose(
                np.asarray(got), np.asarray(want), atol=1e-9
            )
            assert stats.fallback_count == 0

    @pytest.mark.parametrize("rep_kind", ["cla", "factorized"])
    def test_scalar_elementwise_stays_native(self, rep_kind):
        if rep_kind == "factorized":
            rep = _make_normalized(seed=2)
            X = rep.materialize()
        else:
            X = _make_dense(seed=2)
            rep = _representations(X)[rep_kind]
        n, d = X.shape
        Xm = matrix("X", (n, d))
        # Non-zero-preserving map: dictionaries/base tables rewrite exactly.
        expr = sumall((Xm + 1.5) * 2.0)
        want = execute(expr, {"X": X})
        got, stats = execute(expr, {"X": rep}, collect_stats=True)
        assert got == pytest.approx(want, abs=1e-9)
        assert stats.fallback_count == 0
        assert any(
            k.startswith("binary:") for k in stats.native_repr_ops
        )

    def test_csr_zero_preserving_scalar_map(self):
        X = _make_dense(seed=3)
        X[X < 2] = 0.0
        rep = CSRMatrix.from_dense(X)
        n, d = X.shape
        Xm = matrix("X", (n, d))
        expr = sumall(Xm * 3.0)
        want = execute(expr, {"X": X})
        got, stats = execute(expr, {"X": rep}, collect_stats=True)
        assert got == pytest.approx(want, abs=1e-9)
        assert stats.fallback_count == 0

    def test_csr_non_zero_preserving_falls_back_once(self):
        X = _make_dense(seed=4)
        rep = CSRMatrix.from_dense(X)
        n, d = X.shape
        Xm = matrix("X", (n, d))
        # exp(0) != 0 and +1 breaks zero preservation: CSR must densify,
        # and the fallback must be recorded.
        expr = sumall(Xm + 1.0)
        want = execute(expr, {"X": X})
        got, stats = execute(expr, {"X": rep}, collect_stats=True)
        assert got == pytest.approx(want, abs=1e-9)
        assert stats.fallback_count >= 1
        assert "binary:+" in stats.densify_fallbacks

    @pytest.mark.parametrize("rep_kind", ["cla", "csr", "factorized"])
    def test_fused_kernels(self, rep_kind):
        if rep_kind == "factorized":
            rep = _make_normalized(seed=5)
            X = rep.materialize()
        else:
            X = _make_dense(seed=5)
            rep = _representations(X)[rep_kind]
        n, d = X.shape
        Xm = matrix("X", (n, d))
        vm = matrix("v", (d, 1))
        v = np.arange(d, dtype=np.float64).reshape(-1, 1)
        for expr, bindings in [
            (Xm.T @ Xm, {"X": X}),  # tsmm
            (Xm.T @ (Xm @ vm), {"X": X, "v": v}),  # mvchain
            (sumall(Xm**2), {"X": X}),  # sq_sum
        ]:
            plan = compile_expr(expr)
            want = execute(plan, bindings)
            got, stats = execute(
                plan, {**bindings, "X": rep}, collect_stats=True
            )
            np.testing.assert_allclose(
                np.asarray(got), np.asarray(want), atol=1e-8
            )
            assert stats.fallback_count == 0

    def test_min_aggregate_densifies_and_records(self):
        X = _make_dense(seed=6)
        rep = CompressedMatrix.compress(X)
        n, d = X.shape
        Xm = matrix("X", (n, d))
        from repro.lang import minall

        expr = minall(Xm)  # min needs every cell in position
        want = execute(expr, {"X": X})
        got, stats = execute(expr, {"X": rep}, collect_stats=True)
        assert got == pytest.approx(want, abs=1e-12)
        assert stats.fallback_count >= 1


# ----------------------------------------------------------------------
# Force-dense reproduces the legacy interpreter exactly
# ----------------------------------------------------------------------
class TestForceDense:
    def test_dense_representation_is_bitwise_identical(self):
        X = _make_dense(seed=7)
        n, d = X.shape
        Xm = matrix("X", (n, d))
        wm = matrix("w", (d, 1))
        w = np.linspace(-1, 1, d).reshape(-1, 1)
        plan = compile_expr(Xm.T @ sigmoid(Xm @ wm))

        legacy, legacy_stats = execute(
            plan, {"X": X, "w": w}, collect_stats=True
        )
        forced, forced_stats = execute(
            plan,
            {"X": CompressedMatrix.compress(X), "w": w},
            representation="dense",
            collect_stats=True,
        )
        assert np.array_equal(forced, legacy)
        assert forced_stats.op_counts == legacy_stats.op_counts
        assert forced_stats.intermediate_bytes == legacy_stats.intermediate_bytes
        assert forced_stats.native_repr_ops == {}

    def test_unknown_representation_rejected(self):
        Xm = matrix("X", (2, 2))
        with pytest.raises(ExecutionError, match="plan_representations"):
            execute(Xm + Xm, {"X": np.eye(2)}, representation="cla")


# ----------------------------------------------------------------------
# Compressed elementwise maps (dictionary rewrites, incl. OLE default)
# ----------------------------------------------------------------------
class TestCompressedMaps:
    def _ole_matrix(self):
        rng = np.random.default_rng(8)
        X = np.zeros((600, 3))
        mask = rng.random(600) < 0.05
        X[mask, 0] = 3.0
        X[:, 1] = rng.integers(0, 3, size=600)
        X[:, 2] = rng.integers(0, 3, size=600)
        C = CompressedMatrix.compress(X)
        assert "ole" in C.schemes(), C.schemes()
        return X, C

    def test_scale_rewrites_dictionaries(self):
        X, C = self._ole_matrix()
        scaled = C.scale(-2.5)
        np.testing.assert_allclose(scaled.decompress(), X * -2.5, atol=0)
        # Zero-preserving: compressed size unchanged, no decompression.
        assert scaled.compressed_bytes == C.compressed_bytes

    def test_add_scalar_uses_ole_default(self):
        X, C = self._ole_matrix()
        shifted = C.map_values(lambda values: values + 1.25)
        np.testing.assert_allclose(shifted.decompress(), X + 1.25, atol=0)
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(
            shifted.matvec(v), (X + 1.25) @ v, atol=1e-9
        )
        np.testing.assert_allclose(
            shifted.colsums(), (X + 1.25).sum(axis=0), atol=1e-9
        )
        u = np.linspace(0, 1, X.shape[0])
        np.testing.assert_allclose(
            shifted.rmatvec(u), (X + 1.25).T @ u, atol=1e-9
        )

    def test_normalized_scale_and_add(self):
        nm = _make_normalized(seed=9)
        X = nm.materialize()
        np.testing.assert_allclose(
            nm.scale(3.0).materialize(), X * 3.0, atol=0
        )
        np.testing.assert_allclose(
            nm.map_values(lambda values: values - 0.5).materialize(),
            X - 0.5,
            atol=0,
        )


# ----------------------------------------------------------------------
# Representation planner
# ----------------------------------------------------------------------
class TestRepresentationPlanner:
    def _grad_plan(self, n, d):
        Xm = matrix("X", (n, d))
        wm = matrix("w", (d, 1))
        ym = matrix("y", (n, 1))
        return compile_expr(Xm.T @ (sigmoid(Xm @ wm) - ym) / n)

    def _bindings(self, X):
        n, d = X.shape
        return {"X": X, "w": np.zeros((d, 1)), "y": np.zeros((n, 1))}

    def test_compressible_input_chooses_cla(self):
        rng = np.random.default_rng(10)
        X = rng.integers(0, 3, size=(9000, 8)).astype(np.float64)
        plan = plan_representations(
            self._grad_plan(*X.shape), self._bindings(X)
        )
        choice = plan.repr_plan.choices["X"]
        assert choice.representation == "cla"
        assert "repr   : X -> cla" in plan.explain()
        assert "convert[cla](X)" in plan.explain()
        # Vectors stay dense.
        assert plan.repr_plan.choices["w"].representation == "dense"

    def test_sparse_input_chooses_csr(self):
        rng = np.random.default_rng(11)
        X = np.zeros((9000, 8))
        mask = rng.random(X.shape) < 0.01
        X[mask] = rng.standard_normal(int(mask.sum()))
        plan = plan_representations(
            self._grad_plan(*X.shape), self._bindings(X)
        )
        assert plan.repr_plan.choices["X"].representation == "csr"

    def test_incompressible_input_stays_dense(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((9000, 8))
        plan = plan_representations(
            self._grad_plan(*X.shape), self._bindings(X)
        )
        assert plan.repr_plan.choices["X"].representation == "dense"
        assert not any(
            isinstance(node, Convert) for node in _walk(plan.root)
        )

    def test_factorized_binding_stays_factorized(self):
        nm = _make_normalized(n=6000, seed=13)
        plan = plan_representations(
            self._grad_plan(*nm.shape), self._bindings(nm.materialize()) | {"X": nm}
        )
        assert plan.repr_plan.choices["X"].representation == "factorized"

    def test_force_dense_materializes_everything(self):
        rng = np.random.default_rng(14)
        X = rng.integers(0, 3, size=(9000, 8)).astype(np.float64)
        compiled = self._grad_plan(*X.shape)
        plan = plan_representations(
            compiled, self._bindings(X) | {"X": CompressedMatrix.compress(X)},
            force="dense",
        )
        assert all(
            c.representation == "dense"
            for c in plan.repr_plan.choices.values()
        )
        out = execute(
            plan, self._bindings(X) | {"X": CompressedMatrix.compress(X)}
        )
        want = execute(compiled, self._bindings(X))
        np.testing.assert_allclose(out, want, atol=1e-9)

    def test_pinned_target_dict(self):
        rng = np.random.default_rng(15)
        X = rng.integers(0, 3, size=(9000, 8)).astype(np.float64)
        plan = plan_representations(
            self._grad_plan(*X.shape),
            self._bindings(X),
            force={"X": "csr"},
        )
        assert plan.repr_plan.choices["X"].representation == "csr"
        assert plan.repr_plan.choices["X"].reason == "forced"

    def test_missing_binding_raises(self):
        with pytest.raises(CompilerError, match="binding"):
            plan_representations(self._grad_plan(100, 4), {})

    def test_invalid_force_string(self):
        with pytest.raises(CompilerError, match="force"):
            plan_representations(
                self._grad_plan(100, 4),
                self._bindings(np.zeros((100, 4))),
                force="cla",
            )


def _walk(root):
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.children)
    return out


# ----------------------------------------------------------------------
# Property: random supported-op programs match dense within 1e-9
# ----------------------------------------------------------------------
#: every representation serves these natively
SUPPORTED_EMAPS = ["none", "scale", "neg", "square"]
SUPPORTED_TERMINALS = ["matvec", "gram", "colsums", "rowsums", "sumall"]
#: ... and some representation densifies on these
WIDE_EMAPS = SUPPORTED_EMAPS + [
    "exp", "add", "times_dense", "t_times_dense", "times_computed",
]
WIDE_TERMINALS = SUPPORTED_TERMINALS + ["chain", "maxall"]


@st.composite
def _program_case(
    draw,
    rows=(5, 24),
    cols=(2, 6),
    emaps=SUPPORTED_EMAPS,
    terminals=SUPPORTED_TERMINALS,
):
    n = draw(st.integers(*rows))
    d = draw(st.integers(*cols))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    emap = draw(st.sampled_from(emaps))
    terminal = draw(st.sampled_from(terminals))
    scalar = draw(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).filter(
            lambda c: abs(c) > 1e-3
        )
    )
    return n, d, seed, emap, terminal, scalar


def _build_expr(n, d, emap, terminal, scalar):
    """``terminal(emap(X))`` and the dense inputs it names beside X."""
    Xm = matrix("X", (n, d))
    body = {
        "none": lambda: Xm,
        "scale": lambda: Xm * scalar,
        "neg": lambda: -Xm,
        "square": lambda: Xm**2,
        "exp": lambda: exp(Xm),
        "add": lambda: Xm + scalar,
        "times_dense": lambda: Xm * matrix("D", (n, d)),
        "t_times_dense": lambda: Xm.T * matrix("Dt", (d, n)),
        # a 1x1 computed at run time, not a literal
        "times_computed": lambda: Xm * sumall(matrix("w", (d, 1))),
    }[emap]()
    vector = matrix("v" if body.shape[1] == d else "u", (body.shape[1], 1))
    expr = {
        "matvec": lambda: body @ vector,
        "chain": lambda: body.T @ (body @ vector),
        "gram": lambda: body.T @ body,
        "colsums": lambda: colsums(body),
        "rowsums": lambda: rowsums(body),
        "sumall": lambda: sumall(body),
        "maxall": lambda: maxall(body),
    }[terminal]()
    return expr


def _dense_inputs(plan, rng):
    """Small-integer dense bindings for every input of ``plan`` but X."""
    return {
        name: rng.integers(-2, 3, size=shape).astype(np.float64)
        for name, shape in plan.inputs.items()
        if name != "X"
    }


@settings(max_examples=30, deadline=None)
@given(case=_program_case())
def test_property_random_programs_match_dense(case):
    n, d, seed, emap, terminal, scalar = case
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)

    plan = compile_expr(_build_expr(n, d, emap, terminal, scalar))
    bindings = {"X": X, **_dense_inputs(plan, rng)}
    want = execute(plan, bindings)

    reps = {
        "cla": CompressedMatrix.compress(X),
        "csr": CSRMatrix.from_dense(X),
    }
    for kind, rep in reps.items():
        got, stats = execute(
            plan, {**bindings, "X": rep}, collect_stats=True
        )
        np.testing.assert_allclose(
            np.asarray(got), np.asarray(want), atol=1e-9,
            err_msg=f"{kind} diverged on {emap}/{terminal}",
        )
        # Every op in this template pool is in the supported subset.
        assert stats.fallback_count == 0, (
            kind, emap, terminal, stats.densify_fallbacks
        )


@settings(max_examples=15, deadline=None)
@given(case=_program_case())
def test_property_factorized_matches_dense(case):
    n, d, seed, emap, terminal, scalar = case
    rng = np.random.default_rng(seed)
    n_r = max(2, n // 3)
    d_s = max(1, d // 2)
    d_r = max(1, d - d_s)
    S = rng.integers(0, 3, size=(n, d_s)).astype(np.float64)
    R = rng.integers(0, 3, size=(n_r, d_r)).astype(np.float64)
    fk = rng.integers(0, n_r, size=n)
    nm = NormalizedMatrix(S, [fk], [R])
    X = nm.materialize()

    plan = compile_expr(_build_expr(n, X.shape[1], emap, terminal, scalar))
    bindings = {"X": X, **_dense_inputs(plan, rng)}
    want = execute(plan, bindings)
    got, stats = execute(plan, {**bindings, "X": nm}, collect_stats=True)
    np.testing.assert_allclose(
        np.asarray(got), np.asarray(want), atol=1e-9,
        err_msg=f"factorized diverged on {emap}/{terminal}",
    )
    assert stats.fallback_count == 0


# ----------------------------------------------------------------------
# Property: the planner and the runtime give one answer
# ----------------------------------------------------------------------
def _blocked_labels(reason):
    """The operator labels a planner reason names as densifying."""
    _, found, labels = reason.partition("blocked by ")
    return labels.split(", ") if found else []


# Large enough to clear the planning threshold (4096 cells), tall and
# skinny so compression stays cheap.
@given(
    case=_program_case(
        rows=(600, 620), cols=(7, 9), emaps=WIDE_EMAPS, terminals=WIDE_TERMINALS
    )
)
# The three disagreements measured at PR 18's parent: a CSR operand
# under a transpose times dense (planned "stay sparse", densified), and
# a CLA operand times a computed 1x1 (planned dense, served natively).
@example(case=(600, 7, 0, "t_times_dense", "rowsums", 1.0))
@example(case=(600, 7, 0, "t_times_dense", "sumall", 1.0))
@example(case=(600, 8, 0, "times_computed", "colsums", 1.0))
@settings(deadline=None)
def test_property_planner_and_runtime_agree(case):
    """For one representation-bound input among dense ones: the planner
    names a densifying operator for the kind iff executing over an
    operand of that kind records a fallback of that kind. Exact both
    ways — except that CSR may be refused where the answer hangs on a
    scalar only known at run time, and then the reason says so."""
    n, d, seed, emap, terminal, scalar = case
    rng = np.random.default_rng(seed)
    n_r, d_s = n // 20, d // 2
    nm = NormalizedMatrix(
        rng.integers(0, 3, size=(n, d_s)).astype(np.float64),
        [rng.integers(0, n_r, size=n)],
        [rng.integers(0, 3, size=(n_r, d - d_s)).astype(np.float64)],
    )
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    operands = {
        "cla": (CompressedMatrix.compress(X), X),
        "csr": (CSRMatrix.from_dense(X), X),
        "factorized": (nm, nm.materialize()),
    }

    plan = compile_expr(_build_expr(n, d, emap, terminal, scalar))
    others = _dense_inputs(plan, rng)
    for kind, (rep, dense) in operands.items():
        want = execute(plan, {"X": dense, **others})
        got, stats = execute(plan, {"X": rep, **others}, collect_stats=True)
        np.testing.assert_allclose(
            np.asarray(got), np.asarray(want), atol=1e-9,
            err_msg=f"{kind} diverged on {emap}/{terminal}",
        )
        fell_back = stats.fallback_kinds.get(kind, 0) > 0

        choice = plan_representations(
            plan, {"X": rep, **others}
        ).repr_plan.choices["X"]
        blocked = _blocked_labels(choice.reason)
        context = (kind, emap, terminal, choice.reason, stats.densify_fallbacks)
        if blocked and not fell_back:
            assert kind == "csr", context
            assert all("run time" in label for label in blocked), context
        else:
            assert bool(blocked) == fell_back, context
