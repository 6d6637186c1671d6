"""Unit tests for repro.ml.optim."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.algorithms import logreg_gd
from repro.data import make_low_cardinality_matrix
from repro.errors import ConvergenceWarning, ModelError
from repro.ml.losses import LogisticLoss, SquaredLoss
from repro.ml.optim import _relative_improvement, descend, gradient_descent


@pytest.fixture
def quadratic(rng):
    X = rng.standard_normal((200, 4))
    w_true = np.array([1.0, -2.0, 0.5, 3.0])
    y = X @ w_true
    return X, y, w_true


class TestGradientDescent:
    def test_recovers_exact_solution(self, quadratic):
        X, y, w_true = quadratic
        result = gradient_descent(SquaredLoss(), X, y, max_iter=500, tol=1e-14)
        assert np.allclose(result.weights, w_true, atol=1e-4)

    def test_loss_monotone_with_line_search(self, quadratic):
        X, y, _ = quadratic
        result = gradient_descent(SquaredLoss(), X, y, max_iter=50)
        diffs = np.diff(result.loss_history)
        assert np.all(diffs <= 1e-12)

    def test_converged_flag(self, quadratic):
        X, y, _ = quadratic
        result = gradient_descent(SquaredLoss(), X, y, max_iter=1000, tol=1e-10)
        assert result.converged
        assert result.iterations < 1000

    def test_warns_on_iteration_cap(self, quadratic):
        X, y, _ = quadratic
        with pytest.warns(ConvergenceWarning):
            gradient_descent(SquaredLoss(), X, y, max_iter=2, tol=0.0)

    def test_no_warning_when_disabled(self, quadratic):
        X, y, _ = quadratic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gradient_descent(
                SquaredLoss(), X, y, max_iter=2, tol=0.0, warn_on_cap=False
            )

    def test_l2_shrinks_weights(self, quadratic):
        X, y, _ = quadratic
        free = gradient_descent(SquaredLoss(), X, y, warn_on_cap=False)
        penalized = gradient_descent(
            SquaredLoss(), X, y, l2=10.0, warn_on_cap=False
        )
        assert np.linalg.norm(penalized.weights) < np.linalg.norm(free.weights)

    def test_warm_start_converges_faster(self, quadratic):
        X, y, w_true = quadratic
        cold = gradient_descent(
            SquaredLoss(), X, y, tol=1e-12, warn_on_cap=False
        )
        warm = gradient_descent(
            SquaredLoss(),
            X,
            y,
            w0=w_true + 0.001,
            tol=1e-12,
            warn_on_cap=False,
        )
        assert warm.iterations <= cold.iterations

    def test_fixed_step_without_line_search(self, quadratic):
        X, y, w_true = quadratic
        loss = SquaredLoss()
        result = descend(
            partial(loss.value, X, y), partial(loss.gradient, X, y),
            np.zeros(X.shape[1]), 0.1, 2000, 1e-14, line_search=False,
        )
        assert np.allclose(result.weights, w_true, atol=1e-3)

    def test_w0_of_the_wrong_length_is_refused_at_the_door(self, quadratic):
        X, y, _ = quadratic
        with pytest.raises(ModelError, match=r"length 4.*shape \(3,\)"):
            gradient_descent(SquaredLoss(), X, y, w0=np.zeros(3))


# ----------------------------------------------------------------------
# Anchored line search: strides keep their bits
# ----------------------------------------------------------------------
def _descend_oracle(value, gradient, w0, learning_rate, max_iter, tol):
    """``descend`` before probes: every stride scored by ``value(w - s*g)``.
    Returns the iterates, the gradients and the loss history."""
    w, ws, gs, history = w0, [w0], [], [value(w0)]
    for _ in range(max_iter):
        g = gradient(w)
        stride, g_norm_sq = learning_rate, float(g @ g)
        for _ in range(30):
            candidate = w - stride * g
            new = value(candidate)
            if new <= history[-1] - 1e-4 * stride * g_norm_sq:
                break
            stride *= 0.5
        else:
            candidate, new = w, history[-1]
        done = _relative_improvement(history[-1], new) < tol
        w = candidate
        ws.append(w)
        gs.append(g)
        history.append(new)
        if done:
            break
    return ws, gs, history


def _stride(w_next, w, g):
    """The halving of the first stride 1.0 that stepped ``w`` to ``w_next``
    (None: the search found none and ``w`` stayed)."""
    stride = 1.0
    for _ in range(30):
        if np.array_equal(w_next, w - stride * g):
            return stride
        stride *= 0.5
    return None


def _run_both(module, fit, monkeypatch):
    """Run ``fit`` with ``module.descend`` spied on: the anchored run's and
    the oracle's (iterates, gradients, history), ``value`` and the number
    of anchors built."""
    runs = {}

    def spy(value, gradient, w0, learning_rate, max_iter, tol, **loop):
        assert loop.get("probe") is not None  # this provider anchors
        ws, gs = [], []

        def recorded(w):
            ws.append(w)
            gs.append(gradient(w))
            return gs[-1]

        def anchored(w, g):
            runs["anchors"] += 1
            return probe(w, g)

        probe, runs["anchors"] = loop.pop("probe"), 0
        result = descend(
            value, recorded, w0, learning_rate, max_iter, tol,
            probe=anchored, **loop,
        )
        runs["anchored"] = (ws + [result.weights], gs, result.loss_history)
        runs["oracle"] = _descend_oracle(
            value, gradient, w0, learning_rate, max_iter, tol
        )
        runs["value"] = value
        return result

    monkeypatch.setattr(module + ".descend", spy)
    fit()
    return runs


class TestAnchoredLineSearch:
    """``descend`` scores a rejected stride's halvings on anchored margins
    (``Xw - s*Xg``): the accepted strides are the exact search's, except
    where the exact Armijo slack is within a few ULP of zero."""

    #: a flip is legal only this close to the Armijo boundary
    SLACK_ULPS = 8

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 160),
        d=st.integers(1, 6),
        scale=st.sampled_from([1.0, 3.0, 10.0]),
        l2=st.sampled_from([0.0, 0.05]),
        module=st.sampled_from(["repro.ml.optim", "repro.algorithms.glm"]),
    )
    def test_strides_match_the_exact_search(
        self, seed, n, d, scale, l2, module
    ):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * scale
        noisy = X @ rng.standard_normal(d) + scale * rng.standard_normal(n)
        y01 = (noisy > 0).astype(np.float64)
        fits = {  # both search from a first stride of 1.0
            "repro.ml.optim": lambda: gradient_descent(
                LogisticLoss(), X, 2.0 * y01 - 1.0, learning_rate=1.0,
                l2=l2, max_iter=8, tol=0.0, warn_on_cap=False,
            ),
            "repro.algorithms.glm": lambda: logreg_gd(
                X, y01, l2=l2, max_iter=8, tol=0.0
            ),
        }
        with pytest.MonkeyPatch.context() as mp:
            runs = _run_both(module, fits[module], mp)
        ws, gs, history = runs["anchored"]
        want_ws, _, want_history = runs["oracle"]
        value = runs["value"]
        flips = 0
        for k in range(len(gs)):
            w, g = ws[k], gs[k]
            # every entry is the loss at its iterate: exact after a first
            # stride or a stuck search, within 1e-12 after an anchored one
            exact = value(ws[k + 1])
            if history[k + 1] != exact:
                assert abs(history[k + 1] - exact) <= 1e-12 * abs(exact)
                assert _stride(ws[k + 1], w, g) != 1.0
            if np.array_equal(ws[k + 1], want_ws[k + 1]):
                continue
            # The first stride the two searches judged differently: the
            # exact slack there must sit on the Armijo boundary.
            stride = max(
                s for s in (_stride(ws[k + 1], w, g), _stride(want_ws[k + 1], w, g))
                if s is not None
            )
            slack = (
                want_history[k] - 1e-4 * stride * float(g @ g)
                - value(w - stride * g)
            )
            assert abs(slack) <= self.SLACK_ULPS * np.spacing(
                abs(want_history[k])
            ), (k, stride, slack)
            flips += 1
            break  # the trajectories part here
        event(f"flips: {flips}")
        event(f"anchors: {runs['anchors']}")

    def test_a_rejected_stride_costs_one_anchor_not_a_matvec_per_halving(
        self, monkeypatch
    ):
        # A noisy low-cardinality fit whose every first stride Armijo
        # rejects: the exact search scored each halving by value() (a
        # matvec), the anchored one scores the same strides on one anchor.
        X = make_low_cardinality_matrix(400, 6, cardinality=8, seed=1) * 3.0
        rng = np.random.default_rng(0)
        noisy = X @ rng.standard_normal(6) + 3.0 * rng.standard_normal(400)
        y = np.where(noisy > 0, 1.0, -1.0)
        calls = {"value": 0, "probe": 0, "scores": 0, "exact": 0}

        def counted(value, gradient, w0, *args, probe, **loop):
            def counted_value(w):
                calls["value"] += 1
                return value(w)

            def counted_probe(w, g):
                calls["probe"] += 1
                score = probe(w, g)

                def counted_score(s):
                    calls["scores"] += 1
                    return score(s)

                return counted_score

            def exact(w):
                calls["exact"] += 1
                return value(w)

            _descend_oracle(exact, gradient, w0, *args)
            return descend(
                counted_value, gradient, w0, *args, probe=counted_probe,
                **loop,
            )

        monkeypatch.setattr("repro.ml.optim.descend", counted)
        result = gradient_descent(
            LogisticLoss(), X, y, learning_rate=1.0, max_iter=10, tol=0.0,
            warn_on_cap=False,
        )
        assert result.iterations == 10
        assert calls["value"] == 11  # w0, then one first stride per step
        assert calls["probe"] == 10  # every first stride was rejected
        assert calls["value"] + calls["scores"] == calls["exact"] > 40
