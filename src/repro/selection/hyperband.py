"""Hyperband: bracketed successive halving.

Successive halving needs an up-front choice between 'many configs, tiny
budgets' and 'few configs, big budgets'. Hyperband hedges by running
several brackets that trade those off against each other under one total
budget, inheriting halving's early-stopping economics without committing
to one aggressiveness level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..errors import SelectionError
from ..ml.base import Estimator
from .halving import HalvingResult, successive_halving
from .search import Evaluation, SearchResult


@dataclass
class Bracket:
    """One successive-halving bracket inside a Hyperband run."""

    index: int
    num_configs: int
    min_budget: int
    result: HalvingResult


@dataclass
class HyperbandResult(SearchResult):
    brackets: list[Bracket] = field(default_factory=list)


def hyperband(
    estimator: Estimator,
    sample_config: Callable[[np.random.Generator], dict[str, Any]],
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    max_budget: int = 32,
    eta: int = 3,
    seed: int | None = 0,
) -> HyperbandResult:
    """Run Hyperband with configurations drawn from ``sample_config``.

    Args:
        sample_config: draws one hyperparameter dict given an RNG.
        max_budget: the largest per-config training budget (R).
        eta: the halving rate (configs and budgets scale by eta).
    """
    if eta < 2:
        raise SelectionError("eta must be >= 2")
    if max_budget < 1:
        raise SelectionError("max_budget must be >= 1")
    rng = np.random.default_rng(seed)

    s_max = int(math.floor(math.log(max_budget, eta)))
    brackets: list[Bracket] = []
    evaluations: list[Evaluation] = []
    for s in range(s_max, -1, -1):
        # Bracket s: n configs at initial budget R * eta^-s.
        n = int(math.ceil((s_max + 1) * eta**s / (s + 1)))
        r = max(1, int(max_budget * eta**-s))
        configs = [sample_config(rng) for _ in range(n)]
        result = successive_halving(
            estimator,
            configs,
            X_train,
            y_train,
            X_val,
            y_val,
            min_budget=r,
            max_budget=max_budget,
            eta=eta,
        )
        brackets.append(
            Bracket(index=s, num_configs=n, min_budget=r, result=result)
        )
        evaluations.extend(result.evaluations)
    return HyperbandResult(evaluations=evaluations, brackets=brackets)


def sample_from_space(space: dict[str, Any]) -> Callable:
    """Build a ``sample_config`` callable from a random-search space.

    Accepts the same spec format as :func:`repro.selection.random_search`
    (discrete lists, ``("uniform", lo, hi)``, ``("loguniform", lo, hi)``).
    """
    from .search import _draw

    def sample(rng: np.random.Generator) -> dict[str, Any]:
        return {name: _draw(rng, spec) for name, spec in space.items()}

    return sample
