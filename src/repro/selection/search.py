"""Grid and random hyperparameter search with cost accounting.

Searches return a :class:`SearchResult` that records, per configuration,
the score *and the training cost paid* (iterations/epochs where the
estimator exposes them) — model-selection management treats compute as a
first-class budget, not an afterthought.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

import numpy as np

from ..errors import SelectionError
from ..ml.base import Estimator
from ..obs import get_registry, span
from ..runtime.parallel import (
    PYTHON_CALL_FLOPS,
    ParallelContext,
    dispatch,
    resolve_context,
)
from .cv import KFold


@dataclass
class Evaluation:
    """One configuration's outcome."""

    params: dict[str, Any]
    score: float
    fold_scores: list[float] = field(default_factory=list)
    cost: float = 0.0  # training iterations/epochs actually spent


@dataclass
class SearchResult:
    """All evaluations of a search, best-first helpers included."""

    evaluations: list[Evaluation]

    @property
    def best(self) -> Evaluation:
        if not self.evaluations:
            raise SelectionError("search produced no evaluations")
        return max(self.evaluations, key=lambda e: e.score)

    @property
    def best_params(self) -> dict[str, Any]:
        return self.best.params

    @property
    def best_score(self) -> float:
        return self.best.score

    @property
    def total_cost(self) -> float:
        return sum(e.cost for e in self.evaluations)


def expand_grid(grid: dict[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of a parameter grid, in deterministic order."""
    if not grid:
        raise SelectionError("parameter grid must be non-empty")
    names = list(grid)
    for name in names:
        if not list(grid[name]):
            raise SelectionError(f"grid entry {name!r} has no values")
    combos = itertools.product(*(list(grid[name]) for name in names))
    return [dict(zip(names, values)) for values in combos]


def _training_cost(model: Estimator) -> float:
    """Iterations actually spent fitting, if the estimator reports them."""
    result = getattr(model, "optim_result_", None)
    if result is not None:
        return float(result.iterations)
    n_iter = getattr(model, "n_iter_", None)
    if n_iter is not None:
        return float(n_iter)
    return 1.0


def _evaluate(
    estimator: Estimator,
    params: dict[str, Any],
    X: np.ndarray,
    y: np.ndarray,
    cv: KFold,
) -> Evaluation:
    scores = []
    cost = 0.0
    for train_idx, test_idx in cv.split(len(X)):
        model = estimator.clone().set_params(**params)
        model.fit(X[train_idx], y[train_idx])
        scores.append(model.score(X[test_idx], y[test_idx]))
        cost += _training_cost(model)
    return Evaluation(
        params=dict(params),
        score=float(np.mean(scores)),
        fold_scores=[float(s) for s in scores],
        cost=cost,
    )


def search_cost_hint(X: np.ndarray, cv: KFold, n_configs: int = 1) -> float:
    """Flops-equivalent estimate for CV-evaluating configurations."""
    return float(X.size) * cv.n_splits * n_configs * PYTHON_CALL_FLOPS


def _evaluate_configs(
    estimator: Estimator,
    configs: list[dict[str, Any]],
    X: np.ndarray,
    y: np.ndarray,
    cv: KFold,
    ctx: ParallelContext | None,
    site: str,
) -> list[Evaluation]:
    """Evaluate configurations, optionally through a context's pool.

    Order is preserved and each configuration's cost accounting is
    computed inside its own task, so serial and parallel runs produce
    identical evaluation lists (and therefore identical best configs).
    """
    registry = get_registry()
    registry.inc("selection.searches")
    registry.inc("selection.configs_evaluated", len(configs))
    with span(
        site, configs=len(configs), folds=cv.n_splits, parallel=ctx is not None
    ):
        # Materialize folds once up front: every task then reads the
        # cached plan instead of racing to build it.
        cv.folds(len(X))
        return dispatch(
            ctx,
            partial(_evaluate, estimator, X=X, y=y, cv=cv),
            configs,
            cost_hint=search_cost_hint(X, cv, len(configs)),
            site=site,
        )


def grid_search(
    estimator: Estimator,
    grid: dict[str, Sequence[Any]],
    X: np.ndarray,
    y: np.ndarray,
    cv: KFold | int = 3,
    parallel: ParallelContext | None = None,
) -> SearchResult:
    """Exhaustive cross-validated search over a parameter grid.

    ``parallel=ctx`` evaluates configurations concurrently on the
    context's cost-gated worker pool; selection and cost accounting are
    identical to the serial path.
    """
    if isinstance(cv, int):
        cv = KFold(cv)
    X = np.asarray(X)
    y = np.asarray(y)
    evaluations = _evaluate_configs(
        estimator,
        expand_grid(grid),
        X,
        y,
        cv,
        resolve_context(parallel),
        site="selection.grid_search",
    )
    return SearchResult(evaluations)


def random_search(
    estimator: Estimator,
    space: dict[str, Any],
    X: np.ndarray,
    y: np.ndarray,
    n_samples: int = 20,
    cv: KFold | int = 3,
    seed: int | None = 0,
    parallel: ParallelContext | None = None,
) -> SearchResult:
    """Randomized search.

    Space entries may be:
      * a list/tuple of discrete choices,
      * ``("uniform", low, high)`` for continuous uniform,
      * ``("loguniform", low, high)`` for log-scale continuous.

    All draws happen up front from the seeded generator, so parallel and
    serial runs evaluate the same configurations in the same order.
    """
    if isinstance(cv, int):
        cv = KFold(cv)
    if n_samples < 1:
        raise SelectionError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    X = np.asarray(X)
    y = np.asarray(y)

    configs = [
        {name: _draw(rng, spec) for name, spec in space.items()}
        for _ in range(n_samples)
    ]
    evaluations = _evaluate_configs(
        estimator,
        configs,
        X,
        y,
        cv,
        resolve_context(parallel),
        site="selection.random_search",
    )
    return SearchResult(evaluations)


def _draw(rng: np.random.Generator, spec: Any) -> Any:
    if (
        isinstance(spec, tuple)
        and len(spec) == 3
        and spec[0] in ("uniform", "loguniform")
    ):
        kind, low, high = spec
        if not (low < high):
            raise SelectionError(f"invalid range ({low}, {high})")
        if kind == "uniform":
            return float(rng.uniform(low, high))
        if low <= 0:
            raise SelectionError("loguniform bounds must be positive")
        return float(math.exp(rng.uniform(math.log(low), math.log(high))))
    values = list(spec)
    if not values:
        raise SelectionError("discrete search space entry has no values")
    return values[rng.integers(len(values))]
