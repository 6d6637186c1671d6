#!/usr/bin/env python3
"""CI regression gate: compare a fresh benchmark JSON against a baseline.

Usage::

    python benchmarks/check_regression.py candidate.json baseline.json \
        [--tolerance 0.25]

Both files are ``--out`` captures of the same benchmark (``meta.experiment``
must match). A check that needs one capture does not live here: it is an
``assert`` in the bench's ``run()``, beside the value it checks (flags,
exact ledgers, parity bounds, published speedup floors, disabled-path
overhead bounds), so a capture that reaches this gate has passed all of
them. The one exception is E23's post-correction floor, which holds
only when the bench runs on its own (see ``_e23_fallback_floor``). The
gate holds what only two captures can show:

* the candidate ran the baseline's workloads;
* deterministic counts (seeded streams, seeded chaos schedules) equal
  the baseline's and byte totals stay within ``--tolerance`` of it;
* the same decisions were taken: E18's serial/parallel choice per input
  size, E19's natively served operators;
* **one wall-clock rule**, applied on every host: a baseline speedup win
  (>= 1.25) must stay a win (>= 1.0); a baseline that never claimed a
  win is informational. Every gated speedup is a same-run ratio
  (batch-64 vs batch-1, delta vs snapshot, warm vs cold), so it needs no
  matching core count between the two captures. The one metric that
  does depend on cores — E18's per-thread-count speedups — decides from
  the two captures themselves: a sweep point is held to the rule only
  when it could fan out on both hosts (``1 < threads <=
  meta.cpu_count``); otherwise it is informational.

A capture taken under an active chaos context (``meta.chaos_active``)
never compares against a clean baseline, and vice versa — shed and
retry ledgers are only meaningful between like captures. A seeded fault
count compares only while both captures ran the same ``chaos_seed``.

Exit status: 0 when every applicable check passes, 1 otherwise (the CI
job fails). Every check prints one line, so the workflow log is the
regression report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

#: a baseline speedup at/above this is a claimed win the gate protects.
WIN_THRESHOLD = 1.25


class Gate:
    """One candidate/baseline pair, the checks run on it, and the tally."""

    def __init__(self, cand: dict, base: dict, tol: float) -> None:
        self.cand, self.base, self.tol = cand, base, tol
        self.cw = {entry["workload"]: entry for entry in cand["results"]}
        self.bw = {entry["workload"]: entry for entry in base["results"]}
        self.failures: list[str] = []
        self.passed = 0
        self.skipped = 0

    def check(self, ok: bool, label: str) -> None:
        if ok:
            self.passed += 1
            print(f"  ok    {label}")
        else:
            self.failures.append(label)
            print(f"  FAIL  {label}")

    def skip(self, label: str) -> None:
        self.skipped += 1
        print(f"  skip  {label}")

    def wall(self, label: str, candidate: float, baseline: float) -> None:
        """The wall-clock rule: a claimed baseline win must stay a win."""
        if baseline >= WIN_THRESHOLD:
            self.check(candidate >= 1.0, label + " (baseline win preserved)")
        else:
            self.skip(label + " (baseline not a win; informational)")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(candidate: float, baseline: float, tol: float) -> bool:
    """candidate within (1 +/- tol) of baseline; degenerate values fail."""
    if not (math.isfinite(candidate) and math.isfinite(baseline)):
        return False
    if baseline == 0:
        return candidate == 0
    return abs(candidate / baseline - 1.0) <= tol


def _label(template: str, entry: dict, base: dict) -> str:
    """Render a label whose template reads ``{e[...]}`` (the candidate
    entry) and ``{b[...]}`` (the baseline entry)."""
    try:
        return template.format(e=entry, b=base)
    except (KeyError, IndexError, ValueError):
        return template


# ----------------------------------------------------------------------
# The rules: each is a callable (gate) -> None
# ----------------------------------------------------------------------
def workload_set(g: Gate) -> None:
    g.check(
        set(g.cw) == set(g.bw),
        f"workload set matches baseline ({sorted(g.cw)})",
    )


def workload_list(g: Gate) -> None:
    """Ordered variant: the workload sequence matches the baseline."""
    names = [e["workload"] for e in g.cand["results"]]
    g.check(
        names == [e["workload"] for e in g.base["results"]],
        f"workload list matches baseline ({len(names)} entries)",
    )


def match_baseline(workload: str, name: str, label: str):
    """A deterministic count must equal the baseline's exactly."""

    def rule(g: Gate) -> None:
        entry, base = g.cw.get(workload, {}), g.bw.get(workload, {})
        g.check(entry.get(name) == base.get(name), _label(label, entry, base))

    return rule


def wall_speedup(workload: str, name: str):
    """One same-run speedup under the wall-clock rule."""

    def rule(g: Gate) -> None:
        candidate = g.cw.get(workload, {}).get(name, 0.0)
        baseline = g.bw.get(workload, {}).get(name, 0.0)
        g.wall(
            f"{workload}: {name} {candidate:.2f} vs baseline {baseline:.2f}",
            candidate,
            baseline,
        )

    return rule


def chaos_counts(fields: tuple[str, ...], leg: str, counts: str):
    """A seeded fault schedule is deterministic: under the baseline's
    ``chaos_seed`` every chaos leg (an entry carrying ``fields``, named
    by the ``leg`` template) injects exactly the baseline's counts; under
    another seed the schedule differs and the check is informational."""

    def legs(doc: dict) -> dict[str, dict]:
        return {
            _label(leg, e, {}): e
            for e in doc["results"]
            if all(name in e for name in fields)
        }

    def rule(g: Gate) -> None:
        seed = g.cand["meta"].get("chaos_seed")
        base_seed = g.base["meta"].get("chaos_seed")
        base_legs = legs(g.base)
        for name, entry in legs(g.cand).items():
            if seed != base_seed:
                g.skip(
                    f"{name}: injected counts vs baseline "
                    f"(chaos_seed {seed!r} != {base_seed!r})"
                )
                continue
            base = base_legs.get(name, {})
            g.check(
                all(entry.get(f) == base.get(f) for f in fields),
                f"{name}: injected {_label(counts, entry, base)} "
                f"(same seed, same schedule)",
            )

    return rule


def _e18_crossover(g: Gate) -> None:
    """The cost gate takes the baseline's serial/parallel decision at
    every crossover point (the bench asserts the dispatch ledger agrees
    with the decision)."""
    cross = g.cw.get("threshold_crossover")
    base_cross = g.bw.get("threshold_crossover")
    if not (cross and base_cross):
        return
    base_points = {p["n_rows"]: p for p in base_cross["points"]}
    for p in cross["points"]:
        bp = base_points.get(p["n_rows"])
        if bp is None:
            g.check(False, f"crossover point n={p['n_rows']} in baseline")
            continue
        g.check(
            p["above_threshold"] == bp["above_threshold"],
            f"cost-gate decision unchanged at n={p['n_rows']} "
            f"({'parallel' if p['above_threshold'] else 'serial'})",
        )


def _e18_thread_speedups(g: Gate) -> None:
    """Per-thread-count speedups are claims about fan-out, so the
    wall-clock rule holds them only where fan-out could have produced
    them: more than one thread, and no more threads than either host
    had CPUs. A 1-worker context never fans out (its ratio is 1.0 plus
    warm-up noise) and a sweep point past a host's core count
    time-slices one core, so those points are informational."""
    cpus = min(
        g.cand["meta"].get("cpu_count") or 1,
        g.base["meta"].get("cpu_count") or 1,
    )
    for name in sorted(set(g.cw) & set(g.bw) - {"threshold_crossover"}):
        rows = {r["threads"]: r for r in g.cw[name]["by_threads"]}
        base_rows = {r["threads"]: r for r in g.bw[name]["by_threads"]}
        for threads in sorted(set(rows) & set(base_rows)):
            new, old = rows[threads]["speedup"], base_rows[threads]["speedup"]
            label = f"{name}@{threads}t speedup {new:.2f} vs baseline {old:.2f}"
            if not 1 < threads <= cpus:
                g.skip(
                    f"{label} (not a fan-out point: needs 1 < threads <= "
                    f"{cpus} cpus of both hosts; informational)"
                )
                continue
            g.wall(label, new, old)


def _e19_representations(g: Gate) -> None:
    """Per representation: peak bytes track the baseline, the same
    operators are served natively (``native_ops``: which, not only that
    none fell back), and both speedups keep the wall-clock rule."""
    for name in sorted(g.cw):
        entry, base = g.cw[name], g.bw.get(name)
        if base is None:
            continue
        g.check(
            _close(entry["rep_peak_bytes"], base["rep_peak_bytes"], g.tol),
            f"{name}: rep peak bytes track baseline "
            f"({entry['rep_peak_bytes']:,} vs {base['rep_peak_bytes']:,})",
        )
        g.check(
            entry["native_ops"] == base["native_ops"],
            f"{name}: native operators match baseline "
            f"({', '.join(sorted(base['native_ops']))})",
        )
        for metric in ("loop_speedup", "end_to_end_speedup"):
            g.wall(
                f"{name}: {metric} {entry[metric]:.2f} vs baseline "
                f"{base[metric]:.2f}",
                entry[metric],
                base[metric],
            )


def _e22_throughput(g: Gate) -> None:
    """Batched serving: the speedup per batch size over single-row."""
    for name in sorted(n for n in g.cw if n.startswith("throughput/")):
        base = g.bw.get(name)
        if base is not None:
            new = g.cw[name]["speedup_vs_unbatched"]
            old = base["speedup_vs_unbatched"]
            g.wall(f"{name}: speedup {new:.2f} vs baseline {old:.2f}", new, old)


def _e23_fallback_floor(g: Gate) -> None:
    """The one within-capture bound left here. Run on its own, as CI's
    bench-regression job runs it, the corrected power iteration beats
    the uncorrected plan by ``meta.min_fallback_speedup``; inside
    ``run_experiments.py``, after E18/E19 have grown the heap, the same
    leg reads 1.05-1.2x, so ``bench_feedback.run()`` cannot assert it."""
    speedup = g.cw["fallback/power_iteration"]["post_correction_speedup"]
    g.check(
        speedup >= g.cand["meta"]["min_fallback_speedup"],
        f"post-correction speedup {speedup:.2f} clears the published floor "
        f"(within-capture bound)",
    )


# ----------------------------------------------------------------------
# One row list per experiment
# ----------------------------------------------------------------------
GATES: dict[str, list] = {
    "E18": [workload_set, _e18_crossover, _e18_thread_speedups],
    "E19": [workload_set, _e19_representations],
    "E21": [workload_list],
    "E22": [
        workload_set,
        _e22_throughput,
        match_baseline(
            "cache/skewed_entities",
            "hits",
            "cache hits {e[hits]} == baseline {b[hits]} "
            "(seeded stream is deterministic)",
        ),
        match_baseline(
            "cache/skewed_entities",
            "misses",
            "cache misses {e[misses]} == baseline {b[misses]} "
            "(seeded stream is deterministic)",
        ),
        match_baseline(
            "canary/hash_split",
            "canary_requests",
            "canary count {e[canary_requests]} == baseline "
            "{b[canary_requests]} (same seed, same split)",
        ),
        match_baseline(
            "admission/bounded_queue",
            "chaos_shed",
            "seeded admission chaos shed {e[chaos_shed]} == baseline "
            "{b[chaos_shed]}",
        ),
    ],
    "E23": [
        workload_set,
        _e23_fallback_floor,
        wall_speedup("replan/stale_store", "adaptive_vs_pinned_speedup"),
    ],
    "E24": [workload_set, wall_speedup("grid/feature_subsets", "speedup")],
    "E25": [workload_set, wall_speedup("refresh/delta_vs_snapshot", "speedup")],
    "E26": [
        workload_set,
        match_baseline(
            "failover/mid_stream_kill",
            "failovers",
            "failovers {e[failovers]:,} == baseline {b[failovers]:,} "
            "(seeded stream is deterministic)",
        ),
        match_baseline(
            "quota/hot_tenant",
            "hot_shed",
            "hot-tenant sheds {e[hot_shed]} == baseline {b[hot_shed]} "
            "(deterministic schedule)",
        ),
        match_baseline(
            "canary/fleet_split",
            "canary_requests",
            "fleet canary count {e[canary_requests]:,} == baseline "
            "{b[canary_requests]:,} (same seed, same split)",
        ),
        chaos_counts(
            ("injected_route", "injected_score"),
            "{e[workload]}",
            "{e[injected_route]}+{e[injected_score]} == baseline",
        ),
    ],
    "E27": [
        workload_list,
        wall_speedup("refresh/delta_vs_recompute", "speedup"),
        chaos_counts(
            ("faults_injected",),
            "{e[workload]} @ {e[fault_rate]:.0%}",
            "{e[faults_injected]} == baseline {b[faults_injected]}",
        ),
    ],
}


def compare(cand: dict, base: dict, tol: float) -> Gate:
    """Run the experiment's rules over one pair; the gate holds the tally."""
    gate = Gate(cand, base, tol)
    for rule in GATES[cand["meta"]["experiment"]]:
        rule(gate)
    return gate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("candidate", help="fresh --out capture to validate")
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative slack for ratio comparisons (default 0.25)",
    )
    args = parser.parse_args(argv)

    cand, base = _load(args.candidate), _load(args.baseline)
    cand_meta, base_meta = cand.get("meta", {}), base.get("meta", {})
    experiment = cand_meta.get("experiment")
    if experiment != base_meta.get("experiment"):
        print(
            f"error: candidate is {experiment!r} but baseline is "
            f"{base_meta.get('experiment')!r}"
        )
        return 1
    if experiment not in GATES:
        print(f"error: no regression checks registered for {experiment!r} "
              f"(known: {sorted(GATES)})")
        return 1

    cand_chaos = bool(cand_meta.get("chaos_active"))
    base_chaos = bool(base_meta.get("chaos_active"))
    if cand_chaos != base_chaos:
        # Shed/retry/fault ledgers are only meaningful between like
        # captures; a chaos capture never gates against a clean baseline.
        print(
            f"error: candidate chaos_active={cand_chaos} but baseline "
            f"chaos_active={base_chaos}; capture a matching baseline "
            f"(meta.chaos_seed_env: {cand_meta.get('chaos_seed_env')!r}"
            f" vs {base_meta.get('chaos_seed_env')!r})"
        )
        return 1

    print(
        f"{experiment}: candidate cpus={cand_meta.get('cpu_count')}, "
        f"baseline cpus={base_meta.get('cpu_count')}"
    )
    gate = compare(cand, base, args.tolerance)
    print(
        f"\n{experiment}: {gate.passed} passed, {gate.skipped} skipped, "
        f"{len(gate.failures)} failed"
    )
    if gate.failures:
        print("failing checks:")
        for failure in gate.failures:
            print(f"  - {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
