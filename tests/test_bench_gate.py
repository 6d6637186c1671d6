"""The CI regression gate, driven end to end on pure JSON.

``check_regression`` holds what needs two captures, plus E23's fallback
floor (see ``_e23_fallback_floor``). Synthetic E25
captures whose ``meta.cpu_count`` differ (the committed baselines are
1-CPU, CI runners are not) pin the one wall-clock rule: a baseline win
that regresses below 1.0 fails, a preserved win passes, a baseline that
never claimed a win is informational — and a chaos/clean mismatch
errors before any rule runs. The nine committed baselines pin the rest:
each gates against itself reading only fields it carries, an
off-by-one seeded count fails on its own label, a chaos-seed mismatch
makes the injected counts informational, a changed set of natively
served E19 operators fails, and so does an E23 fallback speedup under
its published floor.
"""

import copy
import json
import pathlib
import sys

import pytest

import repro

BENCHMARKS = pathlib.Path(repro.__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import check_regression  # noqa: E402

sys.path.remove(str(BENCHMARKS))

BASELINES = [
    f"BENCH_{name}_quick.json"
    for name in (
        "parallel", "repr_exec", "resilience", "serving", "feedback",
        "reuse", "incremental", "sharding", "features",
    )
]


class _Strict(dict):
    """A JSON object that refuses to read a key it lacks, through
    ``.get`` as well as ``[]``: a rule reading a field no capture
    carries would otherwise compare ``None == None`` and pass."""

    def get(self, key, default=None):
        return self[key]


def _baseline(name: str, strict: bool = False) -> dict:
    text = (BENCHMARKS.parent / name).read_text()
    return json.loads(text, object_hook=_Strict if strict else None)


def _capture(cpu_count: int, speedup: float, chaos: bool = False) -> dict:
    """A minimal E25 capture: the fields the E25 rules read."""
    return {
        "meta": {
            "experiment": "E25",
            "cpu_count": cpu_count,
            "chaos_active": chaos,
        },
        "results": [
            {"workload": "refresh/delta_vs_snapshot", "speedup": speedup},
            {"workload": "serving/e2e_refresh"},
        ],
    }


@pytest.fixture
def gate(tmp_path, capsys):
    def run(candidate: dict, baseline: dict) -> tuple[int, str]:
        paths = []
        for name, doc in (("candidate", candidate), ("baseline", baseline)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        status = check_regression.main([str(p) for p in paths])
        return status, capsys.readouterr().out

    return run


WALL = "refresh/delta_vs_snapshot: speedup"


def test_regressed_win_fails_across_core_counts(gate):
    status, out = gate(_capture(4, speedup=0.8), _capture(1, speedup=8.0))
    assert status == 1
    assert f"FAIL  {WALL} 0.80 vs baseline 8.00 (baseline win preserved)" in out
    assert "cpu_count differs" not in out and "1 failed" in out


def test_preserved_win_passes_across_core_counts(gate):
    status, out = gate(_capture(4, speedup=1.3), _capture(1, speedup=8.0))
    assert status == 0
    assert f"ok    {WALL} 1.30 vs baseline 8.00 (baseline win preserved)" in out
    assert "0 skipped, 0 failed" in out


def test_baseline_without_a_win_is_informational(gate):
    status, out = gate(_capture(4, speedup=0.6), _capture(1, speedup=1.1))
    assert status == 0
    assert f"skip  {WALL} 0.60 vs baseline 1.10 (baseline not a win" in out
    assert "1 skipped, 0 failed" in out


def test_same_core_count_takes_the_same_rule(gate):
    status, out = gate(_capture(1, speedup=0.8), _capture(1, speedup=8.0))
    assert status == 1 and "(baseline win preserved)" in out


def test_chaos_capture_never_gates_against_a_clean_baseline(gate):
    status, out = gate(
        _capture(4, speedup=9.0, chaos=True), _capture(1, speedup=8.0)
    )
    assert status == 1
    assert "chaos_active=True but baseline chaos_active=False" in out
    assert "ok   " not in out  # no rule ran


def test_strict_option_is_gone():
    with pytest.raises(SystemExit):
        check_regression.main(["--strict", "a.json", "b.json"])


def test_e18_thread_points_decide_from_threads_and_cpu_count(gate):
    """E18's per-thread speedups are the one metric that depends on
    cores: a point is held to the rule only where it could fan out on
    both hosts (1 < threads <= cpu_count)."""

    def capture(cpu_count: int, speedups: dict[int, float]) -> dict:
        return {
            "meta": {"experiment": "E18", "cpu_count": cpu_count},
            "results": [
                {
                    "workload": "grid_search_8_configs",
                    "by_threads": [
                        {"threads": t, "speedup": s} for t, s in speedups.items()
                    ],
                }
            ],
        }

    wins = {1: 1.7, 2: 1.8, 8: 1.9}
    status, out = gate(capture(2, {1: 0.9, 2: 0.7, 8: 0.5}), capture(4, wins))
    assert status == 1
    assert "skip  grid_search_8_configs@1t" in out  # one worker never fans out
    assert "FAIL  grid_search_8_configs@2t" in out  # both hosts had 2 cores
    assert "skip  grid_search_8_configs@8t" in out  # past either core count
    status, out = gate(capture(2, {1: 0.9, 2: 0.7, 8: 0.5}), capture(1, wins))
    assert status == 0 and "3 skipped, 0 failed" in out


@pytest.mark.parametrize("name", BASELINES)
def test_every_committed_baseline_gates_against_itself(name):
    doc = _baseline(name, strict=True)
    gate = check_regression.compare(doc, doc, 0.25)
    assert gate.passed > 0 and gate.failures == []


COUNTS = [
    ("BENCH_serving_quick.json", "cache/skewed_entities", "hits"),
    ("BENCH_serving_quick.json", "cache/skewed_entities", "misses"),
    ("BENCH_serving_quick.json", "canary/hash_split", "canary_requests"),
    ("BENCH_serving_quick.json", "admission/bounded_queue", "chaos_shed"),
    ("BENCH_sharding_quick.json", "failover/mid_stream_kill", "failovers"),
    ("BENCH_sharding_quick.json", "quota/hot_tenant", "hot_shed"),
    ("BENCH_sharding_quick.json", "canary/fleet_split", "canary_requests"),
]


@pytest.mark.parametrize("name, workload, field", COUNTS)
def test_a_count_off_by_one_fails_on_its_label(gate, name, workload, field):
    base = _baseline(name)
    cand = copy.deepcopy(base)
    entry = next(e for e in cand["results"] if e["workload"] == workload)
    entry[field] += 1
    status, out = gate(cand, base)
    assert status == 1 and "1 failed" in out
    (failed,) = [line for line in out.splitlines() if line.startswith("  FAIL")]
    numbers = failed.replace(",", "")
    assert f"{entry[field]} == baseline {entry[field] - 1}" in numbers


@pytest.mark.parametrize(
    "name, legs",
    [("BENCH_sharding_quick.json", 3), ("BENCH_features_quick.json", 4)],
)
def test_a_chaos_seed_mismatch_turns_injected_counts_into_skips(
    name, legs, capsys
):
    base = _baseline(name)
    cand = copy.deepcopy(base)
    cand["meta"]["chaos_seed"] = 123
    for entry in cand["results"]:  # another seed, another schedule
        for field in ("injected_route", "injected_score", "faults_injected"):
            if field in entry:
                entry[field] += 1
    gate = check_regression.compare(cand, base, 0.25)
    assert gate.failures == [] and gate.skipped == legs
    skips = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  skip")
    ]
    assert len(skips) == legs
    assert all("(chaos_seed 123 != 7)" in line for line in skips)


def test_an_e19_native_ops_mismatch_fails(capsys):
    base = _baseline("BENCH_repr_exec_quick.json")
    cand = copy.deepcopy(base)
    entry = cand["results"][0]
    entry["native_ops"].pop(sorted(entry["native_ops"])[0])
    gate = check_regression.compare(cand, base, 0.25)
    (failed,) = gate.failures
    assert failed.startswith(f"{entry['workload']}: native operators match")


def test_e23_fallback_floor_is_held_by_the_gate():
    """The one within-capture bound the gate keeps: E23's fallback leg
    clears ``meta.min_fallback_speedup`` only when run on its own."""
    base = _baseline("BENCH_feedback_quick.json")
    cand = copy.deepcopy(base)
    entry = next(
        e for e in cand["results"] if e["workload"] == "fallback/power_iteration"
    )
    entry["post_correction_speedup"] = 1.1
    gate = check_regression.compare(cand, base, 0.25)
    assert gate.failures == [
        "post-correction speedup 1.10 clears the published floor "
        "(within-capture bound)"
    ]
