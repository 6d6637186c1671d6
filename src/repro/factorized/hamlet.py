"""Join avoidance for feature selection (Hamlet).

Hamlet's observation: in a key–foreign-key join, the foreign key
*functionally determines* every attribute-table feature, so from an
information standpoint the FK column already carries everything R can
contribute. When the tuple ratio n_S / n_R is large, replacing R's
features with nothing (or with the FK itself) rarely hurts accuracy —
and the decision can be made from *schema statistics alone*, before any
training.

This module provides the decision rules (the conservative tuple-ratio
heuristic and the VC-dimension-style risk bound) and an empirical
evaluator that measures the accuracy actually given up by avoiding the
join (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.generators import StarSchema
from ..errors import FactorizationError
from ..ml.logreg import LogisticRegression
from ..ml.preprocessing import train_test_split

#: Hamlet's conservative default: avoid the join when n_S / n_R >= 20.
DEFAULT_TUPLE_RATIO_THRESHOLD = 20.0


@dataclass
class JoinDecision:
    """Outcome of a join-avoidance rule for one attribute table."""

    avoid: bool
    tuple_ratio: float
    risk_bound: float
    reason: str


def tuple_ratio_rule(n_s: int, n_r: int) -> JoinDecision:
    """The conservative tuple-ratio rule.

    Avoid the join when each attribute-table row is referenced by at
    least ``DEFAULT_TUPLE_RATIO_THRESHOLD`` entity rows on average: with
    that much replication, the FK column gives the learner as much
    resolution as the R features while the R features mostly add variance.
    """
    if n_s < 1 or n_r < 1:
        raise FactorizationError("table sizes must be positive")
    ratio = n_s / n_r
    avoid = ratio >= DEFAULT_TUPLE_RATIO_THRESHOLD
    return JoinDecision(
        avoid=avoid,
        tuple_ratio=ratio,
        risk_bound=risk_bound(n_s, n_r),
        reason=(
            f"tuple ratio {ratio:.1f} {'>=' if avoid else '<'} "
            f"threshold {DEFAULT_TUPLE_RATIO_THRESHOLD:.1f}"
        ),
    )


def risk_bound(n_s: int, n_r: int) -> float:
    """Hamlet-style excess-risk proxy for using the FK as a feature.

    Treating the FK as a categorical feature with n_r values adds
    hypothesis-space capacity ~ n_r; the standard deviation-style bound
    sqrt(n_r / n_s) shrinks as the tuple ratio grows. Small bound =>
    safe to avoid the join.
    """
    return float(np.sqrt(n_r / n_s))


def decide_joins(
    n_s: int,
    attribute_table_sizes: list[int],
) -> list[JoinDecision]:
    """Apply the rule to every attribute table of a star schema."""
    return [tuple_ratio_rule(n_s, n_r) for n_r in attribute_table_sizes]


@dataclass
class AvoidanceReport:
    """Empirical accuracy comparison for one star-schema dataset."""

    accuracy_with_join: float
    accuracy_no_join: float
    accuracy_fk_onehot: float
    decision: JoinDecision

    @property
    def accuracy_drop(self) -> float:
        """Accuracy lost by dropping R features entirely."""
        return self.accuracy_with_join - self.accuracy_no_join


def evaluate_join_avoidance(
    star: StarSchema,
    seed: int = 0,
) -> AvoidanceReport:
    """Train three models and compare:

    1. with join — features [S, R[fk]];
    2. no join   — features [S] only;
    3. FK one-hot — features [S, onehot(fk)] (the Hamlet substitute).
    """
    y = star.y
    if len(np.unique(y)) != 2:
        raise FactorizationError(
            "evaluate_join_avoidance requires a binary-classification star "
            "schema (use make_star_schema(task='classification'))"
        )

    with_join = star.materialize()
    no_join = star.S
    onehot = np.zeros((len(star.S), len(star.R)))
    onehot[np.arange(len(star.S)), star.fk] = 1.0
    fk_onehot = np.hstack([star.S, onehot])

    accuracies = []
    for features in (with_join, no_join, fk_onehot):
        X_tr, X_te, y_tr, y_te = train_test_split(
            features, y, test_fraction=0.3, seed=seed
        )
        model = LogisticRegression(l2=1e-3, max_iter=100)
        model.fit(X_tr, y_tr)
        accuracies.append(model.score(X_te, y_te))

    return AvoidanceReport(
        accuracy_with_join=accuracies[0],
        accuracy_no_join=accuracies[1],
        accuracy_fk_onehot=accuracies[2],
        decision=tuple_ratio_rule(len(star.S), len(star.R)),
    )
