#!/usr/bin/env python3
"""A model-selection lab session (MSMS / TuPAQ / Columbus workflow).

The iterative loop a data scientist actually runs, with the
data-management optimizations the tutorial surveys doing the heavy
lifting:

  1. Columbus-style feature-subset exploration from shared statistics;
  2. a coarse grid through a caching SelectionSession;
  3. successive halving and a random search over the refined space;
  4. a warm-started regularization path around the winner;
  5. a provenance-tracked pipeline for the final model.

Run: python examples/model_selection_lab.py
"""

import numpy as np

from repro.data import make_classification
from repro.feateng import FeatureSubsetExplorer, Pipeline
from repro.ml import LogisticRegression, StandardScaler, train_test_split
from repro.selection import (
    SelectionSession,
    fit_logistic_path,
    random_search,
    successive_halving,
)


def main() -> None:
    rng = np.random.default_rng(5)
    X_informative, y = make_classification(3000, 8, separation=1.6, seed=5)
    # Pad with pure-noise features the exploration should reject.
    X = np.hstack([X_informative, rng.standard_normal((3000, 12))])
    X_tr, X_te, y_tr, y_te = train_test_split(X, y, 0.3, seed=5)
    print(f"dataset: {X.shape[0]:,} x {X.shape[1]} "
          f"(8 informative + 12 noise features)\n")

    # -- 1. feature exploration (Columbus) --------------------------------
    explorer = FeatureSubsetExplorer(X_tr, y_tr.astype(float))
    trail = explorer.forward_selection(max_features=12, min_gain=5e-3)
    selected = list(trail[-1].columns)
    informative_found = sum(1 for c in selected if c < 8)
    print("[columbus] forward selection from shared X'X / X'y statistics:")
    for step, fit in enumerate(trail, 1):
        print(f"  step {step}: +feature {fit.columns[-1]:>2} "
              f"-> R^2 {fit.r_squared:.3f}")
    print(f"  kept {len(selected)} features "
          f"({informative_found}/8 informative recovered)\n")
    X_tr_sel, X_te_sel = X_tr[:, selected], X_te[:, selected]

    # -- 2. coarse grid through a caching session -------------------------
    session = SelectionSession(
        LogisticRegression(max_iter=40), X_tr_sel, y_tr, cv=3
    )
    session.run_grid({"l2": [1e-4, 1e-2, 1.0], "learning_rate": [0.25, 1.0]})
    # An analyst re-runs an overlapping grid; the session serves cache hits.
    session.run_grid({"l2": [1e-2, 1.0, 100.0], "learning_rate": [1.0]})
    print("[session] coarse grids:")
    print(f"  configs requested {session.ledger.configs_requested}, "
          f"trained {session.ledger.configs_trained}, "
          f"served from cache {session.ledger.configs_cached}")
    print(f"  best so far: {session.best.params} "
          f"(cv acc {session.best.score:.3f})\n")

    # -- 3. successive halving over a refined space -----------------------
    base_l2 = session.best.params["l2"]
    configs = [
        {"l2": base_l2 * f, "learning_rate": lr}
        for f in (0.1, 0.3, 1.0, 3.0, 10.0)
        for lr in (0.25, 0.5, 1.0, 2.0)
    ]
    X_fit, X_val, y_fit, y_val = train_test_split(
        X_tr_sel, y_tr, 0.25, seed=6
    )
    halving = successive_halving(
        LogisticRegression(),
        configs, X_fit, y_fit, X_val, y_val,
        min_budget=2, max_budget=32,
    )
    full = successive_halving(
        LogisticRegression(),
        configs, X_fit, y_fit, X_val, y_val, min_budget=32, max_budget=32,
    )
    print("[halving] refined search:")
    print(f"  rungs: " + " -> ".join(
        f"budget {r.budget}: {len(r.survivors)} configs" for r in halving.rungs
    ))
    print(f"  epochs spent {halving.total_cost:.0f} vs "
          f"{full.total_cost:.0f} for the full grid "
          f"({full.total_cost / halving.total_cost:.1f}x saved)")
    print(f"  best val acc {halving.best_score:.3f} "
          f"(full grid {full.best_score:.3f})\n")

    # The same refined space, sampled instead of enumerated.
    sampled = random_search(
        LogisticRegression(max_iter=32),
        {"l2": ("loguniform", base_l2 * 0.1, base_l2 * 10.0),
         "learning_rate": ("uniform", 0.25, 2.0)},
        X_tr_sel, y_tr, n_samples=8, cv=3, seed=7,
    )
    best = sampled.best_params
    print(f"[random] {len(sampled.evaluations)} draws over the refined space:")
    print(f"  best l2 = {best['l2']:.4g}, learning_rate = "
          f"{best['learning_rate']:.3f} (cv acc {sampled.best_score:.3f})\n")

    # -- 4. warm-started path around the winner ---------------------------
    winner_l2 = halving.best.params["l2"]
    lambdas = winner_l2 * np.logspace(1, -1, 7)
    warm = fit_logistic_path(X_tr_sel, y_tr, lambdas, warm_start=True)
    cold = fit_logistic_path(X_tr_sel, y_tr, lambdas, warm_start=False)
    best_point = max(warm.points, key=lambda p: p.train_score)
    print("[warm path] around the winner:")
    print(f"  iterations warm {warm.total_iterations} vs "
          f"cold {cold.total_iterations}")
    print(f"  chosen l2 = {best_point.l2:.4g}\n")

    # -- 5. final provenance-tracked pipeline -----------------------------
    pipeline = Pipeline(
        [
            ("scale", StandardScaler()),
            ("model", LogisticRegression(l2=best_point.l2, max_iter=200)),
        ]
    )
    pipeline.fit(X_tr_sel, y_tr)
    print("[pipeline] final model provenance:")
    for line in pipeline.provenance_.describe().splitlines():
        print(f"  {line}")
    print(f"\nheld-out test accuracy: {pipeline.score(X_te_sel, y_te):.4f}")


if __name__ == "__main__":
    main()
