"""E6 — In-database gradient methods (Bismarck).

Surveyed claims: (a) one unified UDA covers GLMs by swapping the loss;
(b) IGD converges in a handful of epochs; (c) shuffling once nearly
matches per-epoch reshuffling and beats clustered order.
"""

import numpy as np

from repro.data import make_classification
from repro.indb import train_igd
from repro.ml.losses import LogisticLoss
from repro.storage import Table

EPOCHS = 6
POLICIES = ("none", "once", "each")


def run() -> dict:
    n, d = 10_000, 10
    X, y = make_classification(n, d, separation=2.0, seed=29)
    order = np.argsort(y)  # clustered physical order
    table = Table.from_columns(
        {f"x{i}": X[order, i] for i in range(d)}
        | {"y": np.where(y[order] == 1, 1.0, -1.0)}
    )
    features = [f"x{i}" for i in range(d)]
    history = {
        policy: train_igd(
            table, features, "y", LogisticLoss(),
            epochs=EPOCHS, shuffle=policy, seed=3,
        ).loss_history
        for policy in POLICIES
    }
    once, each, none = history["once"], history["each"], history["none"]
    assert once[5] < 0.6 * once[0], "IGD did not converge in five epochs"
    assert once[-1] < none[-1], "shuffle-once lost to clustered order"
    assert abs(once[-1] - each[-1]) <= 0.3 * each[-1], (once[-1], each[-1])
    return {"loss_history": history}


def report(results: dict) -> None:
    history = results["loss_history"]
    print(f"{'epoch':>6} {'none':>8} {'once':>8} {'each':>8}")
    for epoch in range(EPOCHS + 1):
        print(
            f"{epoch:>6} "
            f"{history['none'][epoch]:>8.4f} "
            f"{history['once'][epoch]:>8.4f} "
            f"{history['each'][epoch]:>8.4f}"
        )
