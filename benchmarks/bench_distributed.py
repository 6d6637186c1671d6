"""E15 — Distributed training strategies (BSP vs averaging vs param server).

Surveyed claims: (a) BSP gradient descent is statistically identical to
single-node GD, paying one communication round per iteration; (b)
one-shot model averaging needs a single round but loses accuracy as
shards shrink; (c) parameter-server asynchrony tolerates moderate
staleness and destabilizes under extreme staleness with large steps.
"""

import numpy as np

from repro.data import make_classification, make_regression
from repro.distributed import (
    SimulatedCluster,
    train_bsp_gd,
    train_model_averaging,
    train_parameter_server,
)
from repro.ml.losses import LogisticLoss, SquaredLoss


def _strategy_row(name: str, result) -> dict:
    return {
        "strategy": name,
        "rounds": result.comm.rounds,
        "kb_moved": result.comm.total_bytes / 1024,
        "final_loss": result.final_loss,
    }


def run() -> dict:
    X, y, _ = make_regression(4000, 16, noise=0.2, seed=67)
    bsp = train_bsp_gd(
        SimulatedCluster(X, y, num_workers=8, seed=1),
        SquaredLoss(), rounds=30, learning_rate=0.3,
    )
    avg = train_model_averaging(
        SimulatedCluster(X, y, num_workers=8, seed=1),
        SquaredLoss(), local_iterations=200,
    )
    assert bsp.final_loss < bsp.loss_history[0] / 10
    # one gather + one loss evaluation: two rounds, a sliver of BSP's bytes
    assert avg.comm.rounds == 2
    assert avg.comm.total_bytes < bsp.comm.total_bytes / 10

    Xs, ys, _ = make_regression(400, 40, noise=0.5, seed=68)
    shards = []
    for k in (2, 8, 32):
        a = train_model_averaging(
            SimulatedCluster(Xs, ys, num_workers=k, seed=2),
            SquaredLoss(), local_iterations=300,
        )
        b = train_bsp_gd(
            SimulatedCluster(Xs, ys, num_workers=k, seed=2),
            SquaredLoss(), rounds=200, learning_rate=0.2,
        )
        shards.append(
            {"workers": k, "averaging_loss": a.final_loss, "bsp_loss": b.final_loss}
        )
    assert shards[-1]["averaging_loss"] > shards[0]["averaging_loss"]

    Xc, yc = make_classification(2000, 8, separation=2.0, seed=69)
    ypm = np.where(yc == 1, 1.0, -1.0)
    runs = {
        s: train_parameter_server(
            SimulatedCluster(Xc, ypm, num_workers=8, seed=3),
            LogisticLoss(), total_updates=600,
            learning_rate=2.0, decay=0.0, max_staleness=s, seed=3,
        )
        for s in (0, 16, 64, 128)
    }
    assert runs[0].final_loss < runs[0].loss_history[0]
    assert runs[128].final_loss > runs[0].final_loss

    return {
        "strategies": [
            _strategy_row("BSP GD (30 it)", bsp),
            _strategy_row("model averaging", avg),
        ],
        "shards": shards,
        "staleness": [
            {"max_staleness": s, "final_loss": r.final_loss}
            for s, r in runs.items()
        ],
    }


def report(results: dict) -> None:
    print("least squares, 8 workers:")
    print(f"{'strategy':<18} {'rounds':>7} {'KB moved':>9} {'final loss':>11}")
    for r in results["strategies"]:
        print(f"{r['strategy']:<18} {r['rounds']:>7} "
              f"{r['kb_moved']:>8.1f}K {r['final_loss']:>11.4f}")

    print("\nmodel averaging vs shard size (n=400, d=40):")
    print(f"{'workers':>8} {'avg loss':>9} {'BSP loss':>9}")
    for r in results["shards"]:
        print(f"{r['workers']:>8} {r['averaging_loss']:>9.4f} "
              f"{r['bsp_loss']:>9.4f}")

    print("\nparameter server: staleness sweep (logistic, lr=2.0):")
    print(f"{'max staleness':>14} {'final loss':>11}")
    for r in results["staleness"]:
        print(f"{r['max_staleness']:>14} {r['final_loss']:>11.4f}")
