"""Direct unit tests for the physical kernels in repro.runtime.ops."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.runtime import (
    FUSED_KERNELS,
    apply_aggregate,
    apply_binary,
    apply_fused,
    apply_unary,
)


@pytest.fixture
def pair(rng):
    return rng.standard_normal((6, 4)), rng.standard_normal((6, 4))


class TestBinaryKernels:
    @pytest.mark.parametrize(
        "op,fn",
        [
            ("+", np.add),
            ("-", np.subtract),
            ("*", np.multiply),
            ("/", np.divide),
        ],
    )
    def test_matches_numpy(self, op, fn, pair):
        a, b = pair
        assert np.allclose(apply_binary(op, a, b), fn(a, b))

    def test_power(self, pair):
        a, _ = pair
        assert np.allclose(apply_binary("^", np.abs(a), 2.0), np.abs(a) ** 2)

    def test_unknown_op(self, pair):
        a, b = pair
        with pytest.raises(ExecutionError):
            apply_binary("%", a, b)


class TestUnaryKernels:
    @pytest.mark.parametrize(
        "op,fn",
        [
            ("neg", np.negative),
            ("exp", np.exp),
            ("sqrt", lambda x: np.sqrt(np.abs(x))),
        ],
    )
    def test_matches_numpy(self, op, fn, pair):
        a, _ = pair
        operand = np.abs(a) if op == "sqrt" else a
        assert np.allclose(apply_unary(op, operand), fn(a))

    def test_sigmoid_bounds(self, pair):
        a, _ = pair
        out = apply_unary("sigmoid", a * 100)
        assert np.all((out >= 0) & (out <= 1))

    def test_unknown_op(self, pair):
        with pytest.raises(ExecutionError):
            apply_unary("tanh", pair[0])


class TestAggregateKernels:
    def test_full_aggregates_return_1x1(self, pair):
        a, _ = pair
        for op, fn in [("sum", np.sum), ("mean", np.mean)]:
            out = apply_aggregate(op, a, None)
            assert out.shape == (1, 1)
            assert out[0, 0] == pytest.approx(fn(a))

    def test_axis_aggregates_shapes(self, pair):
        a, _ = pair
        assert apply_aggregate("sum", a, 0).shape == (1, 4)
        assert apply_aggregate("sum", a, 1).shape == (6, 1)
        assert np.allclose(apply_aggregate("mean", a, 0)[0], a.mean(axis=0))

    def test_trace(self, rng):
        a = rng.standard_normal((5, 5))
        assert apply_aggregate("trace", a, None)[0, 0] == pytest.approx(np.trace(a))

    def test_unknown(self, pair):
        with pytest.raises(ExecutionError):
            apply_aggregate("median", pair[0], None)


class TestFusedKernels:
    def test_registry_complete(self):
        assert set(FUSED_KERNELS) == {
            "dot_sum",
            "sq_sum",
            "diff_sq_sum",
            "tsmm",
            "mvchain",
        }

    def test_dot_sum(self, pair):
        a, b = pair
        assert apply_fused("dot_sum", [a, b])[0, 0] == pytest.approx((a * b).sum())

    def test_sq_sum(self, pair):
        a, _ = pair
        assert apply_fused("sq_sum", [a])[0, 0] == pytest.approx((a * a).sum())

    def test_diff_sq_sum_blocked_matches_direct(self, rng):
        # Large enough that the streaming kernel spans several blocks.
        a = rng.standard_normal((200_000, 2))
        b = rng.standard_normal((200_000, 2))
        out = apply_fused("diff_sq_sum", [a, b])[0, 0]
        assert out == pytest.approx(((a - b) ** 2).sum(), rel=1e-10)

    def test_tsmm_symmetric(self, pair):
        a, _ = pair
        out = apply_fused("tsmm", [a])
        assert np.allclose(out, out.T)
        assert np.allclose(out, a.T @ a)

    def test_mvchain(self, rng):
        x = rng.standard_normal((50, 7))
        v = rng.standard_normal((7, 1))
        assert np.allclose(apply_fused("mvchain", [x, v]), x.T @ (x @ v))

    def test_unknown_kernel(self, pair):
        with pytest.raises(ExecutionError):
            apply_fused("wsloss", [pair[0]])


class TestTransformEncoderProperties:
    """Hypothesis coverage for the transform-encode layer."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        n=st.integers(4, 40),
        k_cats=st.integers(1, 5),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_encoder_output_always_finite_and_fixed_width(self, n, k_cats, seed):
        from repro.feateng import TableEncoder, TransformSpec
        from repro.storage import Table

        rng = np.random.default_rng(seed)
        table = Table.from_columns(
            {
                "num": rng.standard_normal(n),
                "cat": rng.choice(
                    [f"c{i}" for i in range(k_cats)], n
                ).astype(object),
            }
        )
        encoder = TableEncoder(
            TransformSpec(standardize=["num"], dummycode=["cat"])
        ).fit(table)
        X = encoder.transform(table)
        assert np.isfinite(X).all()
        assert X.shape == (n, 1 + len(encoder.categories_["cat"]))
        assert X.shape[1] == len(encoder.feature_names_)
        # Spec emission order: dummycode block first, standardized last.
        assert np.allclose(X[:, :-1].sum(axis=1), 1.0)  # valid one-hot
