"""Model-selection sessions: the MSMS facade.

A :class:`SelectionSession` is the unit of model-selection management:
it owns the dataset split and the shared CV plan, runs searches through a
single entry point, accumulates a global cost ledger across searches, and
remembers every evaluation so repeated configurations are served from
cache instead of retrained — the three MSMS pillars (declarative
specification, computation sharing, provenance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..errors import SelectionError
from ..ml.base import Estimator
from .cv import KFold
from .search import Evaluation, SearchResult, _evaluate, expand_grid


def _freeze(params: dict[str, Any]) -> str:
    """Canonical cache key for a configuration."""
    return json.dumps(params, sort_keys=True, default=repr)


@dataclass
class SessionLedger:
    """Cumulative accounting across all searches in a session."""

    configs_requested: int = 0
    configs_trained: int = 0
    configs_cached: int = 0
    total_cost: float = 0.0


class SelectionSession:
    """Shared-state driver for iterative model selection."""

    def __init__(
        self,
        estimator: Estimator,
        X: np.ndarray,
        y: np.ndarray,
        cv: KFold | int = 3,
    ):
        self.estimator = estimator
        self.X = np.asarray(X)
        self.y = np.asarray(y)
        self.cv = KFold(cv) if isinstance(cv, int) else cv
        self.ledger = SessionLedger()
        self._cache: dict[str, Evaluation] = {}
        self.history: list[Evaluation] = []

    def evaluate(self, params: dict[str, Any]) -> Evaluation:
        """Score one configuration, reusing a cached result if present."""
        key = _freeze(params)
        self.ledger.configs_requested += 1
        cached = self._cache.get(key)
        if cached is not None:
            self.ledger.configs_cached += 1
            return cached
        evaluation = _evaluate(self.estimator, params, self.X, self.y, self.cv)
        self._cache[key] = evaluation
        self.history.append(evaluation)
        self.ledger.configs_trained += 1
        self.ledger.total_cost += evaluation.cost
        return evaluation

    def run_grid(self, grid: dict[str, Sequence[Any]]) -> SearchResult:
        """Grid search through the session (cache-aware)."""
        return SearchResult([self.evaluate(p) for p in expand_grid(grid)])

    @property
    def best(self) -> Evaluation:
        if not self.history:
            raise SelectionError("no configurations evaluated yet")
        return max(self.history, key=lambda e: e.score)
