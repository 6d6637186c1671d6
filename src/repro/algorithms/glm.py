"""GLM algorithms authored in the declarative DSL.

These are the reproduction's 'algorithm scripts': linear algebra written
once as DSL expressions, compiled once (rewrites, mmchain, fusion, CSE),
then iterated by a thin driver that only rebinds inputs. The compiler —
not the algorithm author — decides evaluation order and fused kernels,
which is the core promise of declarative ML systems.

``X`` may be a dense array or any storage representation
(:class:`~repro.compression.CompressedMatrix`,
:class:`~repro.sparse.CSRMatrix`,
:class:`~repro.factorized.NormalizedMatrix`): the iteration loop then
runs on the representation's native kernels without materializing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler import compile_expr, plan_representations
from ..compiler import feedback as _feedback
from ..errors import ModelError
from ..lang import matrix, sigmoid
from ..ml.base import require_finite
from ..ml.linreg import Moments
from ..ml.losses import softplus
from ..ml.optim import descend
from ..obs import get_registry
from ..operand import convert_value, is_representation, kind_of
from ..resilience.checkpoint import IterativeCheckpointer
from ..resilience.retry import RetryPolicy
from ..runtime import execute


@dataclass
class AlgorithmResult:
    """Weights plus per-run accounting for a DSL-driven algorithm."""

    weights: np.ndarray
    iterations: int
    converged: bool
    objective_history: list[float] = field(default_factory=list)
    flops_executed: int = 0
    #: adaptive re-optimization: representation switches adopted mid-run
    replans: int = 0
    #: plan decisions adopted, e.g. "iter 2: X -> dense (csr demoted ...)"
    plan_history: list[str] = field(default_factory=list)


def _prepare(X, y, door: str) -> tuple:
    """Pass a representation ``X`` through, coerce the rest to dense and
    ``y`` to a flat vector; check both are finite, one label per row."""
    if not is_representation(X):
        X = np.asarray(X, dtype=np.float64)
        require_finite(door, X=X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(X.shape) != 2 or X.shape[0] != len(y):
        raise ModelError(
            f"need a 2-D X with one label per row, got X of shape "
            f"{X.shape} and y of shape {y.shape}"
        )
    require_finite(door, y=y)
    return X, y


#: consecutive no-change re-plan checks after which a driver stops
#: re-planning: the plan has converged against the observed evidence,
#: and each further check would pay the sampling cost for nothing.
REPLAN_STABLE_CHECKS = 2


def replan_operand(
    plan,
    operands: dict,
    name: str,
    bindings: dict,
    store,
    iteration: int,
    plan_history: list[str],
) -> bool:
    """Re-plan one operand's representation between driver epochs.

    Consults :func:`~repro.compiler.plan_representations` with the
    feedback ``store`` and, when the decision differs from the operand's
    current form, converts it in place in ``operands``. Conversions are
    exact (densify and CSR round-trips are bitwise), so the iteration
    trajectory after a switch matches a run that started in the new
    representation from the same state. Returns True when a switch was
    adopted.
    """
    planned = plan_representations(plan, bindings, feedback=store)
    choice = planned.repr_plan.choices[name]
    current = kind_of(operands[name])
    if choice.representation == current:
        if iteration == 0:
            plan_history.append(
                f"iter 0: {name} stays {current} ({choice.reason})"
            )
        return False
    operands[name] = convert_value(
        operands[name], choice.representation
    )
    plan_history.append(
        f"iter {iteration}: {name} -> {choice.representation} "
        f"({choice.reason})"
    )
    if iteration > 0:
        get_registry().inc("feedback.replans")
    return True


class AdaptivePlan:
    """A compiled plan over a re-plannable design matrix ``X``.

    :meth:`execute` runs the plan (or a ``plan`` passed in) on the current
    form of ``X`` and adds the flops to ``tally``. Called with an iteration
    number (the loop's ``between`` hook) it re-plans ``X`` through
    :func:`replan_operand`: always at iteration 0, then every ``interval``
    iterations until ``REPLAN_STABLE_CHECKS`` consecutive checks adopt no
    change. ``probe`` holds shape stand-ins for the plan's other bindings;
    ``adaptive`` is the drivers' argument of that name (no store: never
    re-plans).
    """

    def __init__(self, plan, X, probe: dict, adaptive, interval: int):
        self.plan, self.probe, self.interval = plan, probe, interval
        self.store = _feedback.resolve_store(adaptive)
        self.operands = {"X": X}
        self.tally = {"flops": 0}
        self.replans = 0  # switches adopted mid-run
        self.plan_history: list[str] = []
        self._stable_checks = 0

    def execute(self, plan=None, **bindings) -> np.ndarray:
        out, stats = execute(
            plan or self.plan, {**self.operands, **bindings},
            collect_stats=True,
        )
        self.tally["flops"] += stats.flops
        return out

    def __call__(self, iteration: int) -> None:
        settled = self._stable_checks >= REPLAN_STABLE_CHECKS
        if self.store is None or (
            iteration > 0 and (settled or iteration % self.interval != 0)
        ):
            return
        if replan_operand(
            self.plan, self.operands, "X", {**self.operands, **self.probe},
            self.store, iteration, self.plan_history,
        ):
            self._stable_checks = 0
            self.replans += iteration > 0
        else:
            self._stable_checks += 1


def linreg_direct(X: np.ndarray, y: np.ndarray, l2: float = 0.0) -> AlgorithmResult:
    """Least squares via the closed form, with the Gram matrix compiled.

    The ``t(X) %*% X`` product compiles to the fused tsmm kernel; the
    small d x d solve runs in the driver.
    """
    X, y = _prepare(X, y, "linreg_direct")
    n, d = X.shape
    Xm = matrix("X", (n, d))
    ym = matrix("y", (n, 1))
    plan = compile_expr({"gram": Xm.T @ Xm, "xty": Xm.T @ ym})
    out, stats = execute(plan, {"X": X, "y": y}, collect_stats=True)
    # the two compiled outputs are X'X and X'y: y'y is never formed
    w = Moments(out["gram"], out["xty"][:, 0], np.nan, n).solve(l2)
    residual = X @ w - y
    objective = 0.5 * float(residual @ residual) / n
    return AlgorithmResult(
        weights=w,
        iterations=1,
        converged=True,
        objective_history=[objective],
        flops_executed=stats.flops,
    )


def linreg_cg(
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 0.0,
    tol: float = 1e-10,
) -> AlgorithmResult:
    """Conjugate gradient on the normal equations (SystemML's LinearRegCG).

    Never forms X'X: each iteration's Hessian-vector product
    ``t(X) %*% (X %*% p) + l2 p`` is one compiled plan whose mvchain
    fusion keeps the cost at O(n d) per iteration, for at most ``d``
    iterations (CG's exact-arithmetic bound).
    """
    X, y = _prepare(X, y, "linreg_cg")
    n, d = X.shape
    Xm = matrix("X", (n, d))
    pm = matrix("p", (d, 1))
    ym = matrix("y", (n, 1))
    hvp_plan = compile_expr(Xm.T @ (Xm @ pm) + l2 * pm)
    rhs_plan = compile_expr(Xm.T @ ym)

    total_flops = 0
    rhs, s = execute(rhs_plan, {"X": X, "y": y}, collect_stats=True)
    total_flops += s.flops
    b = rhs[:, 0]

    w = np.zeros(d)
    r = b.copy()  # residual b - A w with w = 0
    p = r.copy()
    rs = float(r @ r)
    b_norm = np.sqrt(float(b @ b)) or 1.0
    history = [np.sqrt(rs) / b_norm]
    converged = history[-1] <= tol
    it = 0
    while not converged and it < d:
        it += 1
        Ap_col, s = execute(hvp_plan, {"X": X, "p": p}, collect_stats=True)
        total_flops += s.flops
        Ap = Ap_col[:, 0]
        denominator = float(p @ Ap)
        if denominator <= 0:
            break  # numerically singular direction
        alpha = rs / denominator
        w = w + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        history.append(np.sqrt(rs_new) / b_norm)
        if history[-1] <= tol:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return AlgorithmResult(
        weights=w,
        iterations=it,
        converged=converged,
        objective_history=history,
        flops_executed=total_flops,
    )


def logreg_gd(
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 0.0,
    max_iter: int = 200,
    tol: float = 1e-8,
    checkpointer: IterativeCheckpointer | None = None,
    retry: RetryPolicy | None = None,
    adaptive: "bool | _feedback.FeedbackStore | None" = None,
    replan_interval: int = 1,
) -> AlgorithmResult:
    """Logistic regression by gradient descent over compiled plans.

    Labels must be in {0, 1}. The loss and gradient are each one DSL
    program compiled once; the driver loop only rebinds ``w``.
    Uses the probability form: grad = t(X) %*% (sigmoid(Xw) - y) / n.

    The loop is :func:`~repro.ml.optim.descend`: with a ``checkpointer``
    a fresh call resumes from the newest valid checkpoint and ends
    bit-identical to an uninterrupted run; with a ``retry`` policy each
    step survives injected transient faults at site
    ``"glm.logreg_gd.step"``.

    ``adaptive`` enables SystemML-style runtime re-optimization: the
    design matrix's representation is planned up front and re-planned
    every ``replan_interval`` iterations against the feedback store
    (``None`` uses the enclosing ``feedback_scope``'s store if there is
    one, ``False`` never adapts, or pass a
    :class:`~repro.compiler.feedback.FeedbackStore`). Representation
    switches are exact conversions, and the gradient, the loss and the
    line search's anchor all read ``X``'s current form, so the post-switch
    trajectory is bit-identical to a run started in the corrected
    representation from the same state. Once ``REPLAN_STABLE_CHECKS``
    consecutive checks adopt no change the driver stops re-planning (the
    plan has converged against the evidence), bounding the sampling
    overhead. ``result.replans`` / ``result.plan_history`` record the
    adopted plans.
    """
    X, y = _prepare(X, y, "logreg_gd")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise ModelError("logreg_gd expects labels in {0, 1}")
    n, d = X.shape
    Xm = matrix("X", (n, d))
    wm = matrix("w", (d, 1))
    ym = matrix("y", (n, 1))

    probabilities = sigmoid(Xm @ wm)
    grad_expr = Xm.T @ (probabilities - ym) / n + l2 * wm
    grad_plan = compile_expr(grad_expr)

    runner = AdaptivePlan(
        grad_plan, X, {"w": np.zeros(d), "y": y}, adaptive, replan_interval
    )

    def loss_at(margins: np.ndarray, weights: np.ndarray) -> float:
        base = float(np.mean(softplus(margins) - y * margins))
        return base + 0.5 * l2 * float(weights @ weights)

    def anchor(weights: np.ndarray, direction: np.ndarray):
        X_now = runner.operands["X"]
        m, Xg = X_now @ weights, X_now @ direction
        return lambda s: loss_at(m - s * Xg, weights - s * direction)

    with _feedback.feedback_scope(runner.store):
        runner(0)
        run = descend(
            lambda weights: loss_at(runner.operands["X"] @ weights, weights),
            # a 1 x 1 plan output comes back as a float, hence no [:, 0]
            lambda weights: np.reshape(runner.execute(w=weights, y=y), d),
            np.zeros(d),
            1.0,  # first stride; the Armijo search halves it
            max_iter,
            tol,
            probe=anchor,
            checkpointer=checkpointer,
            retry=retry,
            site="glm.logreg_gd.step",
            between=runner,
            tally=runner.tally,
        )
    return AlgorithmResult(
        weights=run.weights,
        iterations=run.iterations,
        converged=run.converged,
        objective_history=run.loss_history,
        flops_executed=runner.tally["flops"],
        replans=runner.replans,
        plan_history=runner.plan_history,
    )
