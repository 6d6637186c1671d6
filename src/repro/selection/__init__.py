"""Model-selection management.

Grid/random search with cost accounting, successive halving, warm-started
regularization paths, shared-fold cross-validation, and cache-aware
selection sessions.
"""

from .cv import KFold
from .featuregrid import FeatureGridResult, ridge_feature_grid
from .foldreuse import (
    RidgeCVResult,
    fold_statistics,
    ridge_cv_naive,
    ridge_cv_shared,
)
from .halving import HalvingResult, Rung, successive_halving
from .search import (
    Evaluation,
    SearchResult,
    expand_grid,
    grid_search,
    random_search,
)
from .session import SelectionSession, SessionLedger
from .warmstart import PathPoint, PathResult, fit_logistic_path

__all__ = [
    "Evaluation",
    "FeatureGridResult",
    "HalvingResult",
    "KFold",
    "PathPoint",
    "PathResult",
    "RidgeCVResult",
    "Rung",
    "SearchResult",
    "SelectionSession",
    "SessionLedger",
    "expand_grid",
    "fit_logistic_path",
    "fold_statistics",
    "grid_search",
    "random_search",
    "ridge_cv_naive",
    "ridge_cv_shared",
    "ridge_feature_grid",
    "successive_halving",
]
