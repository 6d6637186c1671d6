"""E6 — In-database gradient methods (Bismarck, MADlib).

Surveyed claims: (a) one unified UDA covers GLMs by swapping the loss —
squared-loss IGD through the same aggregate lands on the optimum the
single-scan normal equations (MADlib ``linregr``, ``GramUDA``) solve;
(b) IGD converges in a handful of epochs, and per pass over the table
beats batch gradient descent (``method="bgd"``, one ``GradientUDA`` pass
per step); (c) shuffling once nearly matches per-epoch reshuffling and
beats clustered order.
"""

import numpy as np

from repro.data import make_classification, make_regression
from repro.indb import InDBLinearRegression, InDBLogisticRegression, train_igd
from repro.ml.losses import LogisticLoss, SquaredLoss
from repro.storage import Table

EPOCHS = 6
POLICIES = ("none", "once", "each")
#: BGD's fixed step (the in-memory ``LogisticRegression`` default)
BGD_LEARNING_RATE = 1.0
#: squared-loss IGD step; the loss is not bounded like the logistic one
SQUARED_LEARNING_RATE = 0.01
#: how close squared-loss IGD must come to the closed-form optimum
SQUARED_GAP = 0.02


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
    history["bgd"] = InDBLogisticRegression(
        method="bgd", epochs=EPOCHS, learning_rate=BGD_LEARNING_RATE,
    ).fit(table, features, "y").result_.loss_history

    Xr, yr, _ = make_regression(n, d, noise=0.5, seed=29)
    reg = Table.from_columns(
        {f"x{i}": Xr[:, i] for i in range(d)} | {"y": yr}
    )
    history["squared"] = train_igd(
        reg, features, "y", SquaredLoss(), epochs=EPOCHS,
        learning_rate=SQUARED_LEARNING_RATE, seed=3,
    ).loss_history
    linregr = InDBLinearRegression().fit(reg, features, "y")
    optimum = SquaredLoss().value(
        np.column_stack([np.ones(n), Xr]), yr,
        np.concatenate([[linregr.intercept_], linregr.coef_]),
    )

    once, each, none = history["once"], history["each"], history["none"]
    bgd, squared = history["bgd"], history["squared"]
    assert once[5] < 0.6 * once[0], "IGD did not converge in five epochs"
    assert once[-1] < none[-1], "shuffle-once lost to clustered order"
    assert abs(once[-1] - each[-1]) <= 0.3 * each[-1], (once[-1], each[-1])
    assert all(once[e] < bgd[e] for e in range(1, EPOCHS + 1)), (
        f"logistic: IGD (shuffle once) below BGD at every pass "
        f"(igd {once[1:]}, bgd {bgd[1:]})"
    )
    assert optimum <= squared[-1] <= (1 + SQUARED_GAP) * optimum, (
        f"squared: IGD after {EPOCHS} epochs ({squared[-1]:.5f}) within "
        f"{SQUARED_GAP:.0%} of the one-scan linregr optimum ({optimum:.5f})"
    )
    return {"loss_history": history, "linregr_loss": optimum}


def report(results: dict) -> None:
    history = results["loss_history"]
    columns = (*POLICIES, "bgd", "squared")
    print(f"{'epoch':>6}" + "".join(f" {c:>8}" for c in columns))
    for epoch in range(EPOCHS + 1):
        print(
            f"{epoch:>6}"
            + "".join(f" {history[c][epoch]:>8.4f}" for c in columns)
        )
    print(f"linregr (one GramUDA scan) squared loss: "
          f"{results['linregr_loss']:.4f}")
