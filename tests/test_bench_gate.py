"""The CI regression gate's wall-clock rule, driven end to end.

``check_regression.main`` compares two synthetic E25 captures whose
``meta.cpu_count`` differ (the committed baselines are 1-CPU, CI runners
are not): the one categorical rule must still run — a baseline win that
regresses below 1.0 fails, a preserved win passes, a baseline that never
claimed a win is informational — and a chaos/clean mismatch errors
before any rule runs.
"""

import json
import pathlib
import sys

import pytest

import repro

BENCHMARKS = pathlib.Path(repro.__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import check_regression  # noqa: E402

sys.path.remove(str(BENCHMARKS))


def _capture(cpu_count: int, speedup: float, chaos: bool = False) -> dict:
    """A minimal E25 capture every behaviour rule of the table passes."""
    chaos_leg = {
        "workload": "chaos/delta_apply/raise",
        "fault_rate": 0.2,
        "completed": True,
        "identical": True,
        "faults_injected": 4,
        "recomputes": 4,
        "recompute_matches_faults": True,
        "accounted_exact": True,
    }
    return {
        "meta": {
            "experiment": "E25",
            "cpu_count": cpu_count,
            "chaos_active": chaos,
            "min_refresh_speedup": 0.5,
        },
        "results": [
            {
                "workload": "refresh/delta_vs_snapshot",
                "bit_identical": True,
                "ledger_exact": True,
                "rows_folded": 9000,
                "rows_folded_expected": 9000,
                "recomputes": 0,
                "speedup": speedup,
            },
            chaos_leg,
            {
                "workload": "serving/e2e_refresh",
                "identical": True,
                "cache_invalidated": True,
                "prediction_changed": True,
                "versions_chained": True,
            },
        ],
        "overhead": {"estimated_overhead_pct": 0.02, "bound_pct": 3.0},
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
