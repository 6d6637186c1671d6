"""E7 — Model-selection management (MSMS / TuPAQ-style halving).

Surveyed claim: successive halving finds a near-best configuration at a
small fraction of the full-grid training cost.
"""

import numpy as np

from repro.data import make_classification
from repro.ml import LogisticRegression
from repro.ml.preprocessing import train_test_split
from repro.selection import successive_halving


def run() -> dict:
    X, y = make_classification(2000, 8, separation=1.5, seed=31)
    X_tr, X_val, y_tr, y_val = train_test_split(X, y, 0.3, seed=31)
    configs = [
        {"l2": l2, "learning_rate": lr}
        for l2 in np.logspace(-4, 1, 8)
        for lr in (0.25, 1.0)
    ]
    halving = successive_halving(
        LogisticRegression(), configs, X_tr, y_tr, X_val, y_val,
        min_budget=2, max_budget=32,
    )
    full = successive_halving(
        LogisticRegression(), configs, X_tr, y_tr, X_val, y_val,
        min_budget=32, max_budget=32,
    )
    assert full.total_cost == 32 * len(configs)
    assert halving.total_cost < full.total_cost / 2
    assert halving.best_score >= full.best_score - 0.03
    return {
        "configs": len(configs),
        "full": {"epochs": full.total_cost, "best_score": full.best_score},
        "halving": {
            "epochs": halving.total_cost,
            "best_score": halving.best_score,
            "rungs": [[r.budget, len(r.survivors)] for r in halving.rungs],
        },
    }


def report(results: dict) -> None:
    full, halving = results["full"], results["halving"]
    print(f"{'strategy':<20} {'configs':>8} {'epochs spent':>13} "
          f"{'best val acc':>13}")
    print(f"{'full grid':<20} {results['configs']:>8} {full['epochs']:>13.0f} "
          f"{full['best_score']:>13.3f}")
    print(f"{'succ. halving':<20} {results['configs']:>8} "
          f"{halving['epochs']:>13.0f} {halving['best_score']:>13.3f}")
    print("\nrungs (budget -> survivors):",
          " -> ".join(f"{b}:{s}" for b, s in halving["rungs"]))
