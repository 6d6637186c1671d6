#!/usr/bin/env python3
"""From raw tables to a deployed model with SQL, profiling, and transforms.

The complete front half of an in-database ML workflow, using the layers
added around the core engine:

  1. build a feature mart with plain SQL (joins + GROUP BY + HAVING);
  2. profile it and read the data-quality report;
  3. declare a transform spec (dummy-code / bin / standardize)
     and encode the mart to a design matrix;
  4. train, then distribute the same training over a simulated cluster
     and compare strategies;
  5. serialize the winning model to JSON and reload it.

Run: python examples/feature_mart_sql.py
"""

import numpy as np

from repro.distributed import (
    SimulatedCluster,
    train_bsp_gd,
    train_model_averaging,
)
from repro.feateng import TableEncoder, TransformSpec, training_data_report
from repro.lifecycle import dumps_model, loads_model
from repro.ml import LogisticRegression
from repro.ml.losses import LogisticLoss
from repro.storage import Catalog, Table, run_sql


def build_raw_tables(seed: int = 123) -> Catalog:
    rng = np.random.default_rng(seed)
    n_users, n_orders = 1_500, 25_000
    catalog = Catalog()
    catalog.register(
        "users",
        Table.from_columns(
            {
                "user_id": np.arange(n_users),
                "country": rng.choice(
                    ["fr", "de", "us", "jp"], n_users, p=[0.4, 0.3, 0.2, 0.1]
                ).astype(object),
                "age": rng.integers(18, 75, n_users),
            }
        ),
    )
    catalog.register(
        "orders",
        Table.from_columns(
            {
                "user_id": rng.integers(0, n_users, n_orders),
                "total": np.round(rng.exponential(40, n_orders), 2),
                "returned": (rng.random(n_orders) < 0.08).astype(np.int64),
            }
        ),
    )
    return catalog


def main() -> None:
    catalog = build_raw_tables()

    # -- 1. feature mart in SQL -------------------------------------------
    mart = run_sql(
        "SELECT user_id, COUNT(*) AS orders, AVG(total) AS avg_total, "
        "MAX(total) AS max_total, SUM(returned) AS returns "
        "FROM orders GROUP BY user_id HAVING orders >= 3",
        catalog,
    )
    catalog.register("order_features", mart)
    mart = run_sql(
        "SELECT country, age, orders, avg_total, max_total, returns "
        "FROM users JOIN order_features ON user_id = user_id",
        catalog,
    )
    print(f"feature mart: {mart.num_rows:,} rows x {mart.num_columns} cols "
          f"(built with two SQL statements)\n")

    # Label: churn-like outcome driven by returns and engagement.
    rng = np.random.default_rng(7)
    risk = (
        0.9 * mart.column("returns").astype(float)
        - 0.08 * mart.column("orders").astype(float)
        - 0.01 * mart.column("avg_total")
    )
    label = (risk + 0.7 * rng.standard_normal(len(mart)) > np.median(risk))
    mart = mart.with_column("churn", label.astype(np.int64))

    # -- 2. data-quality report -------------------------------------------
    print("data-quality report:")
    print(training_data_report(mart, label_column="churn"))
    print()

    # -- 3. declarative transform-encode -----------------------------------
    spec = TransformSpec(
        dummycode=["country"],
        bin={"age": 5},
        standardize=["orders", "avg_total", "max_total", "returns"],
    )
    encoder = TableEncoder(spec).fit(mart)
    X = encoder.transform(mart)
    y = mart.column("churn")
    print(f"encoded design matrix: {X.shape[0]} x {X.shape[1]}")
    print(f"features: {encoder.feature_names_}\n")

    # -- 4. single-node and distributed training ---------------------------
    model = LogisticRegression(l2=1e-3, max_iter=120).fit(X, y)
    print(f"[single node]     accuracy = {model.score(X, y):.4f}")

    ypm = np.where(y == 1, 1.0, -1.0)
    cluster = SimulatedCluster(X, ypm, num_workers=8, seed=1)
    bsp = train_bsp_gd(cluster, LogisticLoss(), rounds=60, learning_rate=1.0)
    bsp_acc = float(np.mean(np.sign(X @ bsp.weights) == ypm))
    print(f"[BSP, 8 workers]  accuracy = {bsp_acc:.4f}  "
          f"({bsp.comm.rounds} rounds, "
          f"{bsp.comm.total_bytes / 1024:.0f} KB moved)")

    cluster2 = SimulatedCluster(X, ypm, num_workers=8, seed=1)
    avg = train_model_averaging(cluster2, LogisticLoss(), local_iterations=120)
    avg_acc = float(np.mean(np.sign(X @ avg.weights) == ypm))
    print(f"[1-shot average]  accuracy = {avg_acc:.4f}  "
          f"({avg.comm.rounds} rounds, "
          f"{avg.comm.total_bytes / 1024:.1f} KB moved)\n")

    # -- 5. serialize and reload --------------------------------------------
    blob = dumps_model(model)
    restored = loads_model(blob)
    agrees = np.array_equal(restored.predict(X), model.predict(X))
    print(f"model serialized to {len(blob):,} bytes of JSON; "
          f"reloaded model agrees on every row: {agrees}")


if __name__ == "__main__":
    main()
