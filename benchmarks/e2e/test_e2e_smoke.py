"""Smoke test of the whole-loop benchmark at 1/100 size, in-process.

Run with ``python -m pytest benchmarks/e2e -q``. It stays out of the
tier-1 suite (``testpaths = ["tests"]``): it is a load script's
self-check, not a unit test of ``src/``.
"""

import json
import re

import pytest

import run  # noqa: F401  (puts src/ and this directory on sys.path)
import harness
from repro import obs
from spans import Tracer
from workloads import WORKLOADS

SPEC = harness.declared()
SECONDS = SPEC["run_seconds"] / 100
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: per-layer ``ms`` metrics that are not span self times
NOT_SPANS = {
    "harness.wall_ms", "harness.call_p50_ms", "harness.call_p99_ms",
    "calib.kernel_ms", "features.store.materialize_ms",
}


@pytest.fixture(autouse=True)
def small_and_private(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def exact(result):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {
        k: v for k, v in values(result).items()
        if units[k] in ("count", "ratio")
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = harness.run_workload(name, 2017, SECONDS, trace=False)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric, value in values(result).items():
        assert NAME.fullmatch(metric)
        assert value > 0, metric  # end-to-end metrics are never 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_counts_repeat_and_self_times_sum_to_wall(name, tmp_path):
    first = harness.run_workload(name, 2017, SECONDS, trace=True)
    again = harness.run_workload(name, 2017, SECONDS, trace=True)
    other = harness.run_workload(name, 2018, SECONDS, trace=True)
    for result in (first, again, other):
        assert result["correct"], result["problems"]
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(metric) for metric in first["metrics"])
    # same seed, same work: every count identical; another seed, not
    assert exact(first) == exact(again)
    assert exact(first) != exact(other)

    measured = values(first)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = sum(
        v for k, v in measured.items()
        if units[k] == "ms" and k not in NOT_SPANS
    )
    assert spans == pytest.approx(measured["harness.wall_ms"], rel=1e-9)
    assert measured["harness.latency_samples"] == first["samples"]

    lines = (tmp_path / f"trace-{name}-2017.jsonl").read_text().splitlines()
    kinds = {json.loads(line)["type"] for line in lines}
    assert "unit" in kinds


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_are_removed_after_a_traced_run(name, tmp_path):
    cls = WORKLOADS[name]
    workload = cls(2017, cls.warm_units + 1, tmp_path)
    tracer = Tracer()
    workload.instrument(tracer)
    installed = tracer.installed()
    try:
        for unit in range(cls.warm_units + 1):
            tracer.begin_unit(unit)
            workload.unit(unit)
            tracer.end_unit()
        assert all(attr in vars(obj) for obj, attr in installed)
    finally:
        tracer.remove()
        workload.close()
    assert not any(attr in vars(obj) for obj, attr in installed)
    assert not tracer.installed()
    assert not obs.tracing_enabled()
    assert tracer.total_ms() > 0


def test_layer_contrast_between_workloads():
    hot = values(harness.run_workload("serve_hot", 2017, SECONDS, trace=True))
    cold = values(harness.run_workload("serve_cold", 2017, SECONDS, trace=True))
    assert hot["serving.cache.hit_ratio"] >= 0.9
    assert cold["serving.cache.hit_ratio"] <= 0.1
    assert hot["serving.quota.admits"] == hot["serving.fabric.requests"]
    assert cold["serving.quota.admits"] == 0
    train = values(harness.run_workload("train_mixed", 2017, SECONDS, trace=True))
    idle = [
        k for k in train
        if k.split(".")[0] in ("serving", "features", "incremental")
        and k != "features.store.materialize_ms"
    ]
    assert idle and not any(train[k] for k in idle)
