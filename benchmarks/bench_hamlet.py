"""E2 — Join avoidance for learning (Hamlet).

Surveyed claim: at high tuple ratios the attribute table's features can
be dropped (or replaced by the FK) with negligible accuracy loss, and the
avoided join makes training cheaper.
"""

import harness  # ahead of numpy: it pins BLAS threads
from repro.data import make_star_schema
from repro.factorized import evaluate_join_avoidance

TUPLE_RATIOS = (2, 5, 20, 50, 200)


def run() -> dict:
    n_r = 40
    rows = []
    for tuple_ratio in TUPLE_RATIOS:
        star = make_star_schema(
            n_s=n_r * tuple_ratio, n_r=n_r, d_s=4, d_r=8,
            task="classification", fk_importance=0.15, seed=13,
        )
        outcome = evaluate_join_avoidance(star, seed=13)
        rows.append(
            {
                "tuple_ratio": tuple_ratio,
                "accuracy_with_join": outcome.accuracy_with_join,
                "accuracy_no_join": outcome.accuracy_no_join,
                "accuracy_drop": outcome.accuracy_drop,
                "avoid": outcome.decision.avoid,
            }
        )
    # the surveyed claim at the sweep's top: tuple ratio 200 >> 20
    top = rows[-1]
    assert top["avoid"] and top["accuracy_drop"] < 0.08, top
    return {"rows": rows}


def report(results: dict) -> None:
    print(f"{'TR':>6} {'acc join':>9} {'acc nojoin':>11} {'acc drop':>9} "
          f"{'rule says':>10}")
    for r in results["rows"]:
        print(
            f"{r['tuple_ratio']:>6} {r['accuracy_with_join']:>9.3f} "
            f"{r['accuracy_no_join']:>11.3f} {r['accuracy_drop']:>9.3f} "
            f"{'AVOID' if r['avoid'] else 'keep':>10}"
        )
