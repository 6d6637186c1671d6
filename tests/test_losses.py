"""Unit and property tests for repro.ml.losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import logreg_gd
from repro.compression import CompressedMatrix
from repro.data import make_low_cardinality_matrix, make_star_schema
from repro.factorized import FactorizedLogisticRegression, NormalizedMatrix
from repro.ml import LogisticRegression
from repro.ml.losses import LogisticLoss, SquaredLoss, _sigmoid, sigmoid, softplus

LOSSES = [SquaredLoss(), LogisticLoss()]


def finite_difference_gradient(loss, X, y, w, eps=1e-6):
    grad = np.zeros_like(w)
    for i in range(len(w)):
        up, down = w.copy(), w.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (loss.value(X, y, up) - loss.value(X, y, down)) / (2 * eps)
    return grad


@pytest.fixture
def small_problem(rng):
    X = rng.standard_normal((40, 5))
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    w = rng.standard_normal(5) * 0.3
    return X, y, w


class TestGradients:
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
    def test_gradient_matches_finite_difference(self, loss, small_problem):
        X, y, w = small_problem
        analytic = loss.gradient(X, y, w)
        numeric = finite_difference_gradient(loss, X, y, w)
        assert np.allclose(analytic, numeric, atol=1e-4)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
    def test_pointwise_gradient_sums_to_batch(self, loss, small_problem):
        X, y, w = small_problem
        summed = sum(
            loss.pointwise_gradient(X[i], y[i], w) for i in range(len(y))
        ) / len(y)
        assert np.allclose(summed, loss.gradient(X, y, w), atol=1e-10)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
    @pytest.mark.filterwarnings("error")
    def test_pointwise_gradient_is_the_one_row_gradient_bitwise(self, loss, rng):
        """The scalar link takes ``_sigmoid``'s branch and ``np.exp``: the
        same bytes as the array form, and no overflow at +-700 margins."""
        for scale in (0.0, 1e-3, 1.0, 30.0, 700.0, -700.0):
            for _ in range(25):
                x = rng.standard_normal(5)
                w = scale * x / float(x @ x) + 1e-3 * rng.standard_normal(5)
                for y in (1.0, -1.0, np.float64(1.0)):
                    assert np.array_equal(
                        loss.pointwise_gradient(x, y, w),
                        loss.gradient(x[None, :], np.array([y]), w),
                    )
                    assert np.array_equal(
                        loss.gradient_sum(x[None, :], np.array([y]), w),
                        loss.gradient(x[None, :], np.array([y]), w),
                    )


class TestSquaredLoss:
    def test_zero_at_perfect_fit(self, rng):
        X = rng.standard_normal((20, 3))
        w = rng.standard_normal(3)
        assert SquaredLoss().value(X, X @ w, w) == pytest.approx(0.0, abs=1e-20)

    def test_value_formula(self):
        X = np.array([[1.0, 0.0]])
        y = np.array([3.0])
        w = np.array([1.0, 0.0])
        # residual -2 -> 0.5 * 4 / 1 = 2
        assert SquaredLoss().value(X, y, w) == pytest.approx(2.0)


class TestLogisticLoss:
    def test_value_at_zero_weights_is_log2(self, small_problem):
        X, y, _ = small_problem
        assert LogisticLoss().value(X, y, np.zeros(5)) == pytest.approx(np.log(2))

    def test_large_positive_margin_near_zero_loss(self):
        X = np.array([[100.0]])
        assert LogisticLoss().value(X, np.array([1.0]), np.array([1.0])) < 1e-20

    def test_no_overflow_on_extreme_margins(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([-1.0, 1.0])
        value = LogisticLoss().value(X, y, np.array([1.0]))
        assert np.isfinite(value)


class TestSigmoid:
    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0)

    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_always_in_unit_interval(self, z):
        value = sigmoid(np.array([z]))[0]
        assert 0.0 <= value <= 1.0
        assert np.isfinite(value)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, zs):
        z = np.sort(np.asarray(zs))
        s = sigmoid(z)
        assert np.all(np.diff(s) >= -1e-12)


def _masked_sigmoid(z):
    """The two-branch sigmoid the branch-free one replaced: the oracle."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


#: +-0, NaNs of both signs and two payloads, +-inf, subnormals, the
#: largest subnormal, +-36.7 (where exp(-|z|) leaves 1 + e at 1) and
#: +-745 (where exp(-|z|) underflows to 0)
_SPECIAL = np.concatenate([
    np.array([0x0, 0x8000000000000000, 0x7FF8000000000000,
              0x7FF8000000000001, 0xFFF8000000000000, 0xFFF8000000000123,
              0x7FF0000000000000, 0xFFF0000000000000, 0x1,
              0x8000000000000001, 0x000FFFFFFFFFFFFF],
             dtype=np.uint64).view(np.float64),
    [36.7, -36.7, 745.0, -745.0, 709.8, -709.8],
])


def _draws(seed, n):
    """Bit-pattern draws (every exponent, NaNs included), the special
    values, and a band of ordinary margins."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    return np.concatenate([_SPECIAL, bits, 40.0 * rng.standard_normal(n)])


def _shapes(z):
    """One draw set seen as 0-d, (1,), (64,), (12000,) and strided."""
    yield np.asarray(z[3])
    yield z[:1].copy()
    yield z[:64].copy()
    yield z[:12_000].copy()
    yield z[: 2 * 4_000 : 2]


class TestSigmoidParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bits_as_the_masked_form(self, seed):
        z = _draws(seed, 6_000)
        with np.errstate(all="ignore"):
            for view in _shapes(z):
                got, want = _sigmoid(view), _masked_sigmoid(view)
                assert isinstance(got, np.ndarray)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_an_element_alone_scores_as_in_its_batch(self):
        z = _draws(3, 6_000)
        with np.errstate(all="ignore"):
            batch = _sigmoid(z)
            alone = np.array([_sigmoid(z[i : i + 1])[0] for i in range(len(z))])
        assert alone.tobytes() == batch.tobytes()

    def test_public_sigmoid_on_lists_and_scalars(self):
        assert sigmoid([0.0, -0.0]).tolist() == [0.5, 0.5]
        assert sigmoid(0.0).shape == ()
        assert float(sigmoid(-745.0)) == _masked_sigmoid(np.array([-745.0]))[0]


def _ulps(a, b):
    """Distance in units in the last place between same-signed floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestSoftplus:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_two_ulp_of_logaddexp(self, seed):
        m = _draws(seed, 6_000)
        with np.errstate(all="ignore"):
            for view in _shapes(m):
                got, want = softplus(view), np.logaddexp(0.0, view)
                assert got.shape == want.shape
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert np.all(_ulps(got[~nan], want[~nan]) <= 2)

    def test_exact_at_zero_and_the_infinities(self):
        assert softplus(np.array([0.0, -0.0])).tolist() == [np.log(2.0)] * 2
        assert softplus(np.array([np.inf, -np.inf])).tolist() == [np.inf, 0.0]

    def test_a_0d_input_stays_an_array(self):
        value = softplus(np.asarray(-3.0))
        assert isinstance(value, np.ndarray) and value.shape == ()
        assert float(value) == float(softplus(np.array([-3.0]))[0])
        assert float(softplus(np.float64(2.0))) == float(
            softplus(np.array([2.0]))[0]
        )


class TestTheLossOnlyPicksStrides:
    """A loss value decides Armijo strides and the ``tol`` stop, never a
    weight: with softplus swapped back to ``logaddexp`` at every import
    site each fit ends on the same bits, though loss values moved."""

    SITES = ("repro.algorithms.glm.softplus", "repro.ml.losses.softplus")

    @staticmethod
    def _fits():
        """fit -> (weights, loss history) on 300-row grids."""
        X = make_low_cardinality_matrix(300, 6, cardinality=5, seed=3)
        y = (X @ np.linspace(-1.0, 1.0, 6) > 0.0).astype(np.float64)
        star = make_star_schema(
            n_s=300, n_r=30, d_s=3, d_r=5, task="classification", seed=4
        )
        nm = NormalizedMatrix(star.S, [star.fk], [star.R])
        dense = logreg_gd(X, y, max_iter=15, tol=0.0)
        cla = logreg_gd(CompressedMatrix.compress(X), y, max_iter=15, tol=0.0)
        ml = LogisticRegression(max_iter=30).fit(X, y)
        orion = FactorizedLogisticRegression(max_iter=30).fit(nm, star.y)
        return {
            "logreg_gd dense": (dense.weights, dense.objective_history),
            "logreg_gd cla": (cla.weights, cla.objective_history),
            "LogisticRegression": (ml.coef_, ml.optim_result_.loss_history),
            "FactorizedLogisticRegression": (orion.coef_, orion.loss_history_),
        }

    @pytest.mark.parametrize(
        "swap, must_move",
        [
            (lambda m: np.logaddexp(0.0, m), False),
            # a loss one ULP high everywhere, whatever exp this build has
            (lambda m: np.nextafter(np.logaddexp(0.0, m), np.inf), True),
        ],
        ids=["logaddexp", "one-ulp-up"],
    )
    def test_weights_keep_their_bits(self, monkeypatch, swap, must_move):
        fitted = self._fits()
        for site in self.SITES:
            monkeypatch.setattr(site, swap)
        reference = self._fits()
        moved = 0
        for name, (weights, history) in fitted.items():
            want_weights, want_history = reference[name]
            assert weights.tobytes() == want_weights.tobytes(), name
            moved += history != want_history
        assert moved or not must_move  # the swap moved some loss value
