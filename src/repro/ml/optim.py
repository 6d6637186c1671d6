"""First-order optimizers for GLM training.

Batch gradient descent (with backtracking line search; :func:`descend`
also takes fixed steps). Every optimizer returns an
:class:`OptimResult` carrying the loss trajectory
so benchmarks and the model-selection layer can account for iterations,
not just final loss.

:func:`descend` is the one full-batch descent loop in the package and
:func:`iterate` the one checkpoint / retry driver; the DSL, factorized,
in-DB, out-of-core and BSP trainers hand them closures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from ..errors import ConvergenceWarning
from ..resilience.checkpoint import IterativeCheckpointer
from ..resilience.retry import RetryPolicy, resilient_call
from .losses import Loss


@dataclass
class OptimResult:
    """Outcome of an optimization run."""

    weights: np.ndarray
    iterations: int
    converged: bool
    loss_history: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


def l2_penalized(
    value: Callable[..., float], gradient: Callable[..., np.ndarray], l2: float
) -> tuple[Callable[..., float], Callable[..., np.ndarray]]:
    """Add the L2 penalty 0.5 * l2 * ||w||^2 to a value / gradient pair
    whose last argument is ``w``."""
    if l2 <= 0:
        return value, gradient
    return (
        lambda *args: value(*args) + 0.5 * l2 * float(args[-1] @ args[-1]),
        lambda *args: gradient(*args) + l2 * args[-1],
    )


def iterate(
    step: Callable[[Any], tuple[Any, bool]],
    state: Any,
    max_iter: int,
    checkpointer: IterativeCheckpointer | None = None,
    retry: RetryPolicy | None = None,
    site: str | None = None,
    between: Callable[[int], None] | None = None,
    tally: dict | None = None,
) -> tuple[Any, int, bool]:
    """Run ``state, done = step(state)`` until ``done`` or ``max_iter`` steps.

    Every iterative trainer's loop glue, once. ``step`` is pure in
    ``state``, so a run restored from the newest valid checkpoint (saved
    after each step the ``checkpointer`` selects, always after the last)
    ends bit-identical to an uninterrupted one, and with a ``site`` each
    step is a :func:`~repro.resilience.retry.resilient_call` keyed by
    its iteration that ``retry`` may re-execute. ``between(it)`` runs
    after every step but a converged one. ``tally``, the provider's own
    counters, is checkpointed with the state and rolled back when a step
    raises. Returns ``(state, iterations, done)``.
    """
    tally = {} if tally is None else tally
    it, done = 0, False
    latest = checkpointer.load_latest() if checkpointer is not None else None
    if latest is not None:
        it, saved = latest
        state, done = saved["state"], saved["done"]
        tally.update(saved["tally"])

    def attempt():
        mark = dict(tally)
        try:
            return step(state)
        except Exception:
            tally.update(mark)
            raise

    while not done and it < max_iter:
        it += 1
        if site is None:
            state, done = attempt()
        else:
            state, done = resilient_call(attempt, site=site, key=it, retry=retry)
        if checkpointer is not None and (
            done or checkpointer.should_checkpoint(it)
        ):
            checkpointer.save(
                it, {"state": state, "done": done, "tally": dict(tally)}
            )
        if between is not None and not done:
            between(it)
    return state, it, done


def descend(
    value: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    w0: np.ndarray,
    learning_rate: float,
    max_iter: int,
    tol: float,
    line_search: bool = True,
    **loop,
) -> OptimResult:
    """Full-batch descent over a provider's ``value`` / ``gradient`` closures.

    Each step moves along ``-gradient(w)`` by ``learning_rate`` or, with
    ``line_search``, by the first of up to 30 halvings of it that meets
    the Armijo condition; the run stops once the relative improvement of
    ``value`` falls below ``tol``. ``loop`` goes to :func:`iterate`.
    """

    def step(state):
        w, history = state
        g = gradient(w)
        stride, g_norm_sq = learning_rate, float(g @ g)
        for _ in range(30):
            candidate = w - stride * g
            new = value(candidate)
            armijo = new <= history[-1] - 1e-4 * stride * g_norm_sq
            if armijo or not line_search:
                break
            stride *= 0.5
        else:
            # No decrease found (stationary point or numerically stuck).
            candidate, new = w, history[-1]
        done = _relative_improvement(history[-1], new) < tol
        return (candidate, history + [new]), done

    (w, history), it, converged = iterate(
        step, (w0, [value(w0)]), max_iter, **loop
    )
    return OptimResult(w, it, converged, history)


def gradient_descent(
    loss: Loss,
    X: np.ndarray,
    y: np.ndarray,
    w0: np.ndarray | None = None,
    learning_rate: float = 0.1,
    l2: float = 0.0,
    max_iter: int = 500,
    tol: float = 1e-6,
    warn_on_cap: bool = True,
) -> OptimResult:
    """Full-batch gradient descent with backtracking line search.

    Convergence is declared when the relative loss improvement falls below
    ``tol``. The step size is halved until the Armijo sufficient-decrease
    condition holds (this is the strategy SystemML's GLM scripts use to
    stay robust to scaling).
    """
    value, grad = l2_penalized(loss.value, loss.gradient, l2)
    result = descend(
        partial(value, X, y),
        partial(grad, X, y),
        np.zeros(X.shape[1]) if w0 is None else np.array(w0, dtype=np.float64),
        learning_rate,
        max_iter,
        tol,
    )
    if not result.converged and warn_on_cap:
        warnings.warn(
            f"gradient descent hit max_iter={max_iter} (loss {result.final_loss:.6g})",
            ConvergenceWarning,
            stacklevel=2,
        )
    return result


def _relative_improvement(previous: float, current: float) -> float:
    if not np.isfinite(previous) or not np.isfinite(current):
        return float("inf")
    return abs(previous - current) / max(abs(previous), 1e-12)
