#!/usr/bin/env python3
"""Serving-time monitoring and retraining: the lifecycle loop closed.

A deployed model meets drifting production data. This example runs the
full loop the tutorial's lifecycle discussion sketches:

  1. train v1 on historical data, register and deploy it;
  2. serving traffic arrives with a shifted distribution and a brand-new
     category — the drift detector flags exactly the changed columns;
  3. score the drifted window anyway and watch accuracy sag;
  4. retrain on fresh labeled data (v2, with v1 as its lineage parent),
     compare on the same window, and promote;
  5. persist the registry; a 'new process' reloads it and keeps serving.

Run: python examples/serving_monitor.py
"""

import numpy as np

from repro.feateng import TableEncoder, TransformSpec, detect_drift
from repro.lifecycle import ModelRegistry
from repro.ml import LogisticRegression
from repro.storage import Table


def make_window(n, rng, device_pool, latency_shift=0.0, error_scale=1.0):
    """One time-window of request logs with a controllable distribution."""
    latency = rng.exponential(100, n) + latency_shift
    errors = rng.poisson(1.0 * error_scale, n).astype(float)
    payload = rng.uniform(1, 50, n)
    device = rng.choice(device_pool, n).astype(object)
    # Ground truth: failures driven by latency and error counts.
    risk = 0.01 * latency + 0.8 * errors - 0.05 * payload
    label = (risk + rng.standard_normal(n) > np.median(risk)).astype(np.int64)
    return Table.from_columns(
        {
            "latency_ms": latency,
            "error_count": errors,
            "payload_kb": payload,
            "device": device,
            "failed": label,
        }
    )


def main() -> None:
    rng = np.random.default_rng(77)
    registry = ModelRegistry()
    spec = TransformSpec(
        standardize=["latency_ms", "error_count", "payload_kb"],
        dummycode=["device"],
    )

    # -- 1. train and deploy v1 -------------------------------------------
    train = make_window(4000, rng, ["ios", "android", "web"])
    encoder = TableEncoder(spec, allow_unknown=True).fit(train)
    X_train = encoder.transform(train)
    y_train = train.column("failed")
    v1_model = LogisticRegression(l2=1e-3, max_iter=120)
    v1_model.fit(X_train, y_train)
    v1 = registry.register(
        "failure-model",
        v1_model,
        params={"l2": 1e-3},
        metrics={"train_acc": v1_model.score(X_train, y_train)},
        tags=("production",),
    )
    registry.deploy("failure-model", v1.version)
    print(f"deployed {v1.identifier} "
          f"(train acc {v1.metrics['train_acc']:.3f})\n")

    # -- 2. drifted serving window -----------------------------------------
    serving = make_window(
        3000,
        rng,
        ["ios", "android", "web", "tv"],  # new device category
        latency_shift=150.0,  # infra regression shifted latency
        error_scale=1.0,
    )
    report = detect_drift(
        train, serving,
        columns=["latency_ms", "error_count", "payload_kb", "device"],
        threshold=0.15,
    )
    print("drift report (train window vs serving window):")
    print(report.describe())
    print(f"=> drifted columns: {report.drifted_columns}\n")

    # -- 3. deployed model on the drifted window ----------------------------
    X_serve = encoder.transform(serving)
    y_serve = serving.column("failed")
    deployed = registry.deployed("failure-model").model
    acc_v1 = deployed.score(X_serve, y_serve)
    print(f"{v1.identifier} accuracy on drifted window: {acc_v1:.3f}")

    # -- 4. retrain, compare, promote ----------------------------------------
    encoder_v2 = TableEncoder(spec, allow_unknown=True).fit(serving)
    X_fresh = encoder_v2.transform(serving)
    v2_model = LogisticRegression(l2=1e-3, max_iter=120)
    v2_model.fit(X_fresh, y_serve)
    acc_v2 = v2_model.score(X_fresh, y_serve)
    v2 = registry.register(
        "failure-model",
        v2_model,
        params={"l2": 1e-3},
        metrics={"window_acc": acc_v2},
        parent_version=v1.version,
        tags=("retrained",),
    )
    print(f"retrained {v2.identifier} accuracy on same window: {acc_v2:.3f}")
    if acc_v2 > acc_v1:
        registry.deploy("failure-model", v2.version)
        print(f"promoted {v2.identifier} "
              f"(lineage: {' -> '.join(x.identifier for x in registry.lineage('failure-model', v2.version))})\n")

    # -- 5. persist and reload -----------------------------------------------
    import tempfile
    from pathlib import Path

    path = Path(tempfile.gettempdir()) / "failure_model_registry.json"
    registry.save(path)
    restored = ModelRegistry.load(path)
    live = restored.deployed("failure-model")
    agrees = np.array_equal(
        live.model.predict(X_fresh), v2_model.predict(X_fresh)
    )
    print(f"registry persisted to {path} and reloaded; "
          f"deployed {live.identifier} serves identically: {agrees}")


if __name__ == "__main__":
    main()
