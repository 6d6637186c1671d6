"""Successive halving over iteration budgets (the TuPAQ/Hyperband idea).

All candidate configurations start with a small training budget
(iterations); after each rung only the top 1/eta survive with an
eta-times larger budget. Poor configurations are abandoned after paying
only the minimum budget, so the total cost is a fraction of training
every configuration to completion — the headline economics of
model-selection management (experiment E7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

import numpy as np

from ..errors import SelectionError
from ..ml.base import Estimator
from ..runtime.parallel import (
    PYTHON_CALL_FLOPS,
    ParallelContext,
    dispatch,
    resolve_context,
)
from .search import Evaluation, SearchResult


def _fit_scored(
    estimator: Estimator,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    budget: int,
    params: "dict[str, Any]",
) -> tuple[float, dict[str, Any], dict[str, Any]]:
    """Train one configuration at one budget; returns (score, params, full).

    The budget caps training iterations: it is the estimator's
    ``max_iter``, and the cost of one evaluation."""
    full = dict(params)
    full["max_iter"] = budget
    model = estimator.clone().set_params(**full)
    model.fit(X_train, y_train)
    return model.score(X_val, y_val), params, full


def _rung_cost_hint(X_train: np.ndarray, budget: int, n_configs: int) -> float:
    return float(X_train.size) * budget * n_configs * PYTHON_CALL_FLOPS


@dataclass
class Rung:
    """One round of successive halving."""

    budget: int
    survivors: list[dict[str, Any]]
    scores: list[float]


@dataclass
class HalvingResult(SearchResult):
    """Search result plus per-rung history."""

    rungs: list[Rung] = field(default_factory=list)


def successive_halving(
    estimator: Estimator,
    configs: Sequence[dict[str, Any]],
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    min_budget: int = 2,
    max_budget: int = 64,
    eta: int = 2,
    parallel: ParallelContext | None = None,
) -> HalvingResult:
    """Run successive halving over explicit configurations.

    Args:
        parallel: evaluate each rung's survivors concurrently on the
            context's cost-gated pool. Rung boundaries are synchronization
            points, scores and survivor sets are identical to serial.
    """
    if eta < 2:
        raise SelectionError("eta must be >= 2")
    if min_budget < 1 or max_budget < min_budget:
        raise SelectionError(
            f"invalid budgets: min={min_budget}, max={max_budget}"
        )
    configs = [dict(c) for c in configs]
    if not configs:
        raise SelectionError("need at least one configuration")

    ctx = resolve_context(parallel)
    evaluations: list[Evaluation] = []
    rungs: list[Rung] = []
    survivors = configs
    budget = min_budget
    done = False
    while not done:
        fit = partial(
            _fit_scored,
            estimator,
            X_train,
            y_train,
            X_val,
            y_val,
            budget,
        )
        results = dispatch(
            ctx,
            fit,
            survivors,
            cost_hint=_rung_cost_hint(X_train, budget, len(survivors)),
            site="selection.halving",
        )
        scored: list[tuple[float, dict[str, Any]]] = []
        for score, params, full in results:
            scored.append((score, params))
            evaluations.append(
                Evaluation(params=full, score=score, cost=float(budget))
            )
        scored.sort(key=lambda pair: pair[0], reverse=True)
        rungs.append(
            Rung(
                budget=budget,
                survivors=[p for _, p in scored],
                scores=[s for s, _ in scored],
            )
        )
        done = budget >= max_budget or len(scored) == 1
        if not done:
            keep = max(1, len(scored) // eta)
            survivors = [p for _, p in scored[:keep]]
            budget = min(budget * eta, max_budget)

    return HalvingResult(evaluations=evaluations, rungs=rungs)


def full_budget_baseline(
    estimator: Estimator,
    configs: Sequence[dict[str, Any]],
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    budget: int = 64,
    parallel: ParallelContext | None = None,
) -> SearchResult:
    """Train every configuration at full budget (the naive comparator)."""
    fit = partial(
        _fit_scored,
        estimator,
        X_train,
        y_train,
        X_val,
        y_val,
        budget,
    )
    configs = [dict(c) for c in configs]
    results = dispatch(
        resolve_context(parallel),
        fit,
        configs,
        cost_hint=_rung_cost_hint(X_train, budget, len(configs)),
        site="selection.full_budget",
    )
    return SearchResult(
        [
            Evaluation(params=full, score=score, cost=float(budget))
            for score, _, full in results
        ]
    )
