#!/usr/bin/env python3
"""CI regression gate: compare a fresh benchmark JSON against a baseline.

Usage::

    python benchmarks/check_regression.py candidate.json baseline.json \
        [--tolerance 0.25]

Both files are ``--out`` captures of the same benchmark (``meta.experiment``
must match). Two classes of checks:

* **Behavior gates** — machine-independent invariants that must hold on
  any host: zero densify fallbacks, parity errors within 1e-9, compact
  representations beating dense on peak bytes, the cost gate falling
  back to serial below threshold and fanning out above it, byte totals
  tracking the baseline. These always run.
* **Wall-clock gates** — one categorical rule, applied on every host:
  a baseline win (speedup >= 1.25) must stay a win (>= 1.0); a baseline
  that never claimed a win is informational. Every gated speedup is a
  same-run ratio (batch-64 vs batch-1, delta vs snapshot, warm vs cold),
  so it needs no matching core count between the two captures. The one
  metric that does depend on cores — E18's per-thread-count speedups —
  decides from the two captures themselves: a sweep point is held to
  the rule only when it could fan out on both hosts (``1 < threads <=
  meta.cpu_count``); otherwise it is informational.

A capture taken under an active chaos context (``meta.chaos_active``)
never compares against a clean baseline, and vice versa — shed and
retry ledgers are only meaningful between like captures.

Each experiment's gates are a **table of rules** in ``GATES``, built
from a small shared vocabulary (``flag``, ``expect``, ``floor``,
``parity``, ``match_baseline``, ``wall_speedup``, ...). Registering a
new experiment means adding a row list, not writing a new checker
function; genuinely bespoke logic plugs in as a ``custom(fn)`` row.

Exit status: 0 when every applicable check passes, 1 otherwise (the CI
job fails). Every check prints one line, so the workflow log is the
regression report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

PARITY_BOUND = 1e-9

#: a baseline speedup at/above this is a claimed win the gate protects.
WIN_THRESHOLD = 1.25


class Gate:
    """Collects check results and renders the pass/fail report."""

    def __init__(self) -> None:
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


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _by_workload(results: list[dict]) -> dict[str, dict]:
    return {entry["workload"]: entry for entry in results}


def _close(candidate: float, baseline: float, tol: float) -> bool:
    """candidate within (1 +/- tol) of baseline; degenerate values fail."""
    if not (math.isfinite(candidate) and math.isfinite(baseline)):
        return False
    if baseline == 0:
        return candidate == 0
    return abs(candidate / baseline - 1.0) <= tol


def _wall_gate(g: Gate, label: str, candidate: float, baseline: float) -> None:
    """The wall-clock rule: a claimed baseline win must stay a win."""
    if baseline >= WIN_THRESHOLD:
        g.check(candidate >= 1.0, label + " (baseline win preserved)")
    else:
        g.skip(label + " (baseline not a win; informational)")


# ----------------------------------------------------------------------
# Gate context and the rule vocabulary
# ----------------------------------------------------------------------
@dataclass
class GateContext:
    """Everything a gate rule can see for one candidate/baseline pair."""

    cand: dict
    base: dict
    tol: float
    cw: dict = field(init=False)
    bw: dict = field(init=False)
    meta: dict = field(init=False)

    def __post_init__(self) -> None:
        self.cw = _by_workload(self.cand["results"])
        self.bw = _by_workload(self.base["results"])
        self.meta = self.cand.get("meta", {})

    def entry(self, workload: str) -> dict:
        return self.cw.get(workload, {})

    def base_entry(self, workload: str) -> dict:
        return self.bw.get(workload, {})


def _label(template, ctx, workload):
    """Render a rule label; templates may reference ``{e[...]}`` (the
    candidate entry), ``{b[...]}`` (the baseline entry), ``{m[...]}``
    (candidate meta), and ``{w}`` (the workload name)."""
    if callable(template):
        return template(ctx, workload)
    try:
        return template.format(
            e=ctx.entry(workload),
            b=ctx.base_entry(workload),
            m=ctx.meta,
            w=workload,
        )
    except (KeyError, IndexError, ValueError):
        return template


# Each factory below returns a rule: a callable (ctx, gate) -> None.


def workload_set():
    """Candidate and baseline ran the same workload set."""

    def rule(ctx: GateContext, g: Gate) -> None:
        g.check(
            set(ctx.cw) == set(ctx.bw),
            f"workload set matches baseline ({sorted(ctx.cw)})",
        )

    return rule


def workload_list():
    """Ordered variant: workload sequence matches the baseline."""

    def rule(ctx: GateContext, g: Gate) -> None:
        cand_names = [e["workload"] for e in ctx.cand["results"]]
        base_names = [e["workload"] for e in ctx.base["results"]]
        g.check(
            cand_names == base_names,
            f"workload list matches baseline ({len(cand_names)} entries)",
        )

    return rule


def flag(workload: str, fields, label):
    """Boolean invariant(s) on one workload entry must all be True."""
    names = (fields,) if isinstance(fields, str) else tuple(fields)

    def rule(ctx: GateContext, g: Gate) -> None:
        entry = ctx.entry(workload)
        g.check(
            all(entry.get(name) is True for name in names),
            _label(label, ctx, workload),
        )

    return rule


def expect(workload: str, name: str, value, label):
    """One workload field must equal a fixed value."""

    def rule(ctx: GateContext, g: Gate) -> None:
        g.check(ctx.entry(workload).get(name) == value, _label(label, ctx, workload))

    return rule


def fields_equal(workload: str, name_a: str, name_b: str, label):
    """Two fields of the same entry must agree (cross-ledger exactness)."""

    def rule(ctx: GateContext, g: Gate) -> None:
        entry = ctx.entry(workload)
        g.check(
            name_a in entry and entry.get(name_a) == entry.get(name_b),
            _label(label, ctx, workload),
        )

    return rule


def parity(workload: str, name: str, label):
    """A numeric error field must sit within PARITY_BOUND."""

    def rule(ctx: GateContext, g: Gate) -> None:
        g.check(
            ctx.entry(workload).get(name, float("inf")) <= PARITY_BOUND,
            _label(label, ctx, workload),
        )

    return rule


def floor(workload: str, name: str, label, bound=None, meta_key=None):
    """A within-capture ratio must clear a fixed floor (optionally read
    from candidate meta — benches publish their own acceptance bounds)."""

    def rule(ctx: GateContext, g: Gate) -> None:
        limit = ctx.meta.get(meta_key, bound) if meta_key else bound
        g.check(
            ctx.entry(workload).get(name, 0.0) >= limit,
            _label(label, ctx, workload),
        )

    return rule


def ceiling(workload: str, name: str, label, bound=None, meta_key=None):
    """A counter must stay at/below a bound (e.g. correction budget);
    a missing field fails."""

    def rule(ctx: GateContext, g: Gate) -> None:
        limit = ctx.meta.get(meta_key, bound) if meta_key else bound
        value = ctx.entry(workload).get(name)
        g.check(value is not None and value <= limit, _label(label, ctx, workload))

    return rule


def match_baseline(workload: str, name: str, label, when_meta_eq=None):
    """A deterministic count must equal the baseline's exactly. With
    ``when_meta_eq``, the rule only applies while candidate and baseline
    agree on that meta key (e.g. the chaos seed behind the count)."""

    def rule(ctx: GateContext, g: Gate) -> None:
        if when_meta_eq is not None:
            ours = ctx.meta.get(when_meta_eq)
            theirs = ctx.base.get("meta", {}).get(when_meta_eq)
            if ours != theirs:
                g.skip(
                    f"{workload}: {name} vs baseline "
                    f"({when_meta_eq} {ours!r} != {theirs!r})"
                )
                return
        g.check(
            ctx.entry(workload).get(name) == ctx.base_entry(workload).get(name),
            _label(label, ctx, workload),
        )

    return rule


def track_baseline(workload: str, name: str, label):
    """A size-style metric must stay within --tolerance of baseline."""

    def rule(ctx: GateContext, g: Gate) -> None:
        g.check(
            _close(
                ctx.entry(workload).get(name, float("nan")),
                ctx.base_entry(workload).get(name, float("nan")),
                ctx.tol,
            ),
            _label(label, ctx, workload),
        )

    return rule


def wall_speedup(workload: str, name: str):
    """Cross-capture speedup comparison under the wall-clock rule."""

    def rule(ctx: GateContext, g: Gate) -> None:
        candidate = ctx.entry(workload).get(name, 0.0)
        baseline = ctx.base_entry(workload).get(name, 0.0)
        _wall_gate(
            g,
            f"{workload}: {name} {candidate:.2f} vs baseline {baseline:.2f}",
            candidate,
            baseline,
        )

    return rule


def overhead_bound(workload: str | None = None):
    """The disabled-path/overhead budget: measured % under its bound.
    ``workload=None`` reads the capture-level ``overhead`` block (E21,
    E25); otherwise the named workload entry (E23, E24)."""

    def rule(ctx: GateContext, g: Gate) -> None:
        entry = (
            ctx.cand.get("overhead", {})
            if workload is None
            else ctx.entry(workload)
        )
        g.check(
            entry.get("estimated_overhead_pct", float("inf"))
            < entry.get("bound_pct", 3.0),
            f"disabled-path overhead "
            f"{entry.get('estimated_overhead_pct', float('nan')):.3f}% < "
            f"{entry.get('bound_pct', 3.0):.0f}%",
        )

    return rule


def summary_expect(name: str, value, label):
    """A capture-level summary field must equal a fixed value."""

    def rule(ctx: GateContext, g: Gate) -> None:
        g.check(ctx.cand.get("summary", {}).get(name) == value, label)

    return rule


def chaos_injected(min_rate: float = 0.2):
    """The sweep's high-rate legs actually injected faults (an inert
    plan would pass every identity check vacuously)."""

    def rule(ctx: GateContext, g: Gate) -> None:
        entries = [e for e in ctx.cand["results"] if "fault_rate" in e]
        g.check(
            any(
                e.get("faults_injected", 0) > 0
                for e in entries
                if e["fault_rate"] >= min_rate
            ),
            f"faults actually injected at the {min_rate:.0%} rate",
        )

    return rule


def custom(fn):
    """Escape hatch for logic the vocabulary cannot express: ``fn`` is
    called as ``fn(ctx, gate)``."""
    return fn


# ----------------------------------------------------------------------
# Bespoke rules (referenced from the tables below)
# ----------------------------------------------------------------------
def _e18_crossover(ctx: GateContext, g: Gate) -> None:
    """The cost gate's serial/parallel decision per crossover point must
    match the baseline, and the dispatch ledger must agree with it."""
    cross = ctx.cw.get("threshold_crossover")
    base_cross = ctx.bw.get("threshold_crossover")
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
        if p["above_threshold"]:
            g.check(
                p["parallel_calls"] >= 1,
                f"above-threshold n={p['n_rows']} dispatched in parallel",
            )
        else:
            g.check(
                p["serial_fallbacks"] >= 1 and p["parallel_calls"] == 0,
                f"below-threshold n={p['n_rows']} stayed serial",
            )


def _e18_thread_speedups(ctx: GateContext, g: Gate) -> None:
    """Per-thread-count speedups are claims about fan-out, so the
    wall-clock rule holds them only where fan-out could have produced
    them: more than one thread, and no more threads than either host
    had CPUs. A 1-worker context never fans out (its ratio is 1.0 plus
    warm-up noise) and a sweep point past a host's core count
    time-slices one core, so those points are informational."""
    cpus = min(
        ctx.meta.get("cpu_count") or 1,
        ctx.base.get("meta", {}).get("cpu_count") or 1,
    )
    for name in sorted(set(ctx.cw) & set(ctx.bw) - {"threshold_crossover"}):
        rows = {r["threads"]: r for r in ctx.cw[name].get("by_threads", [])}
        base_rows = {
            r["threads"]: r for r in ctx.bw[name].get("by_threads", [])
        }
        for threads in sorted(set(rows) & set(base_rows)):
            label = (
                f"{name}@{threads}t speedup "
                f"{rows[threads]['speedup']:.2f} vs baseline "
                f"{base_rows[threads]['speedup']:.2f}"
            )
            if not 1 < threads <= cpus:
                g.skip(
                    f"{label} (not a fan-out point: needs 1 < threads <= "
                    f"{cpus} cpus of both hosts; informational)"
                )
                continue
            _wall_gate(
                g, label, rows[threads]["speedup"], base_rows[threads]["speedup"]
            )


def _e19_representations(ctx: GateContext, g: Gate) -> None:
    """Per-representation invariants: no densify fallbacks, parity
    within bound, compact reps beating dense bytes, byte totals and
    speedups tracking the baseline, and the same operators served
    natively (``native_ops``: which, not only that none fell back)."""
    for name in sorted(ctx.cw):
        entry = ctx.cw[name]
        g.check(
            entry.get("densify_fallbacks", -1) == 0,
            f"{name}: zero densify fallbacks",
        )
        if "max_weight_error" in entry:
            g.check(
                entry["max_weight_error"] <= PARITY_BOUND,
                f"{name}: weight parity {entry['max_weight_error']:.1e} "
                f"<= {PARITY_BOUND:.0e}",
            )
        if "inertia_rel_error" in entry:
            g.check(
                entry["inertia_rel_error"] <= PARITY_BOUND,
                f"{name}: inertia parity {entry['inertia_rel_error']:.1e} "
                f"<= {PARITY_BOUND:.0e}",
            )
        rep_kind = name.split("/")[-1]
        if rep_kind in ("cla", "factorized"):
            g.check(
                entry["rep_peak_bytes"] < entry["dense_peak_bytes"],
                f"{name}: rep peak {entry['rep_peak_bytes']:,}B < dense "
                f"{entry['dense_peak_bytes']:,}B",
            )
        base_entry = ctx.bw.get(name)
        if base_entry is None:
            continue
        g.check(
            _close(
                entry["rep_peak_bytes"], base_entry["rep_peak_bytes"], ctx.tol
            ),
            f"{name}: rep peak bytes track baseline "
            f"({entry['rep_peak_bytes']:,} vs "
            f"{base_entry['rep_peak_bytes']:,})",
        )
        g.check(
            entry.get("native_ops") == base_entry["native_ops"],
            f"{name}: native operators match baseline "
            f"({', '.join(sorted(base_entry['native_ops']))})",
        )
        for metric in ("loop_speedup", "end_to_end_speedup"):
            _wall_gate(
                g,
                f"{name}: {metric} {entry[metric]:.2f} vs baseline "
                f"{base_entry[metric]:.2f}",
                entry[metric],
                base_entry[metric],
            )


def _e21_entries(ctx: GateContext, g: Gate) -> None:
    """Every E21 workload (clean or chaos) completed bit-identically."""
    for entry in ctx.cand["results"]:
        g.check(
            entry.get("completed") is True and entry.get("identical") is True,
            f"{entry['workload']}"
            + (
                f" @ {entry['fault_rate']:.0%}"
                if "fault_rate" in entry
                else ""
            )
            + ": completed and identical",
        )


def _e22_throughput(ctx: GateContext, g: Gate) -> None:
    """Batched serving: bit identity, ordered latency percentiles, and
    wall-clock speedups per batch size."""
    for name in sorted(n for n in ctx.cw if n.startswith("throughput/")):
        entry = ctx.cw[name]
        g.check(
            entry.get("bit_identical") is True,
            f"{name}: bit-identical to single-row serving",
        )
        lat = entry.get("latency_ms", {})
        g.check(
            all(lat.get(p) is not None for p in ("p50", "p95", "p99"))
            and lat["p50"] <= lat["p95"] <= lat["p99"],
            f"{name}: latency percentiles present and ordered",
        )
        base_entry = ctx.bw.get(name)
        if base_entry is not None:
            _wall_gate(
                g,
                f"{name}: speedup {entry['speedup_vs_unbatched']:.2f} vs "
                f"baseline {base_entry['speedup_vs_unbatched']:.2f}",
                entry["speedup_vs_unbatched"],
                base_entry["speedup_vs_unbatched"],
            )


def _e22_admission_chaos(ctx: GateContext, g: Gate) -> None:
    adm = ctx.cw.get("admission/bounded_queue", {})
    base_adm = ctx.bw.get("admission/bounded_queue", {})
    g.check(
        adm.get("chaos_shed_matches_injected") is True
        and adm.get("chaos_shed") == base_adm.get("chaos_shed"),
        f"seeded admission chaos shed {adm.get('chaos_shed')} == baseline "
        f"{base_adm.get('chaos_shed')}",
    )


def _e25_chaos_entries(ctx: GateContext, g: Gate) -> None:
    """Chaos sweep legs: completion + identity, recomputes equal to
    injected faults, every consumed delta accounted for."""
    for entry in (e for e in ctx.cand["results"] if "fault_rate" in e):
        label = f"{entry['workload']} @ {entry['fault_rate']:.0%}"
        g.check(
            entry.get("completed") is True and entry.get("identical") is True,
            f"{label}: completed, aggregates bit-identical to clean run",
        )
        g.check(
            entry.get("recompute_matches_faults") is True,
            f"{label}: {entry.get('recomputes')} recomputes == "
            f"{entry.get('faults_injected')} injected faults",
        )
        g.check(
            entry.get("accounted_exact") is True,
            f"{label}: every consumed delta accounted for in the ledger",
        )


def _e26_chaos_sweep(ctx: GateContext, g: Gate) -> None:
    """Fabric chaos legs: complete, bit-identical, plan not inert, and
    (same seed only) injected counts equal to the baseline's."""
    seed = ctx.meta.get("chaos_seed")
    base_seed = ctx.base.get("meta", {}).get("chaos_seed")
    for name in sorted(n for n in ctx.cw if n.startswith("chaos/")):
        entry = ctx.cw[name]
        g.check(
            entry.get("complete") is True,
            f"{name}: every request completed under fault injection",
        )
        g.check(
            entry.get("bit_identical") is True,
            f"{name}: answers bit-identical to the clean run",
        )
        g.check(
            entry.get("faults_injected") is True,
            f"{name}: fault plan active exactly when rate > 0",
        )
        if seed != base_seed:
            g.skip(
                f"{name}: injected counts vs baseline "
                f"(chaos_seed {seed!r} != {base_seed!r})"
            )
            continue
        base_entry = ctx.bw.get(name, {})
        g.check(
            entry.get("injected_route") == base_entry.get("injected_route")
            and entry.get("injected_score") == base_entry.get("injected_score"),
            f"{name}: injected "
            f"{entry.get('injected_route')}+{entry.get('injected_score')} "
            f"== baseline (same seed, same schedule)",
        )


def _e27_gate_rollout(ctx: GateContext, g: Gate) -> None:
    """Drift-gated rollout: the unshifted stream promotes, the shifted
    stream is held and rolled back, and ledger + oracle stay exact."""
    entry = ctx.cw.get("gate/drift_rollout", {})
    clean = entry.get("unshifted", {})
    shifted = entry.get("shifted", {})
    g.check(
        clean.get("held") is False
        and clean.get("deployed_version") == 2
        and clean.get("canary_live") is True,
        "unshifted stream promoted the canary cleanly (v2 deployed)",
    )
    g.check(
        shifted.get("held") is True
        and shifted.get("rolled_back") is True
        and shifted.get("canary_live") is False
        and shifted.get("deployed_version") == 1,
        f"shifted stream (psi {shifted.get('max_psi', float('nan')):.2f}) "
        f"held promotion and auto-rolled the canary back",
    )
    g.check(
        entry.get("ledger_exact") is True,
        "gate ledger exact: one evaluation per stream, one hold + one "
        "rollback on the shifted stream only",
    )
    g.check(
        entry.get("oracle_exact") is True,
        "monitor PSI/KS replayed bit-equal from the bucket-count oracle",
    )


def _e27_chaos_entries(ctx: GateContext, g: Gate) -> None:
    """Serve-site chaos legs: bytes bit-identical to offline, every
    fault matched by exactly one fallback, counts matching the baseline
    when the chaos seed does (legs share a workload name across rates,
    so entries pair up by (workload, rate))."""
    seed = ctx.meta.get("chaos_seed")
    base_seed = ctx.base.get("meta", {}).get("chaos_seed")
    base_by_rate = {
        (e["workload"], e["fault_rate"]): e
        for e in ctx.base["results"]
        if "fault_rate" in e
    }
    for entry in (e for e in ctx.cand["results"] if "fault_rate" in e):
        label = f"{entry['workload']} @ {entry['fault_rate']:.0%}"
        g.check(
            entry.get("completed") is True and entry.get("identical") is True,
            f"{label}: served bytes bit-identical to offline under faults",
        )
        g.check(
            entry.get("fallbacks_match_faults") is True,
            f"{label}: {entry.get('fallbacks')} fallbacks == "
            f"{entry.get('faults_injected')} injected faults",
        )
        if seed != base_seed:
            g.skip(
                f"{label}: injected counts vs baseline "
                f"(chaos_seed {seed!r} != {base_seed!r})"
            )
            continue
        base_entry = base_by_rate.get(
            (entry["workload"], entry["fault_rate"]), {}
        )
        g.check(
            entry.get("faults_injected") == base_entry.get("faults_injected"),
            f"{label}: injected {entry.get('faults_injected')} == baseline "
            f"{base_entry.get('faults_injected')} (same seed, same schedule)",
        )


# ----------------------------------------------------------------------
# The gate tables: one row list per experiment
# ----------------------------------------------------------------------
GATES: dict[str, list] = {
    # E18 — cost-aware parallel engine
    "E18": [
        workload_set(),
        custom(_e18_crossover),
        custom(_e18_thread_speedups),
    ],
    # E19 — representation-aware execution
    "E19": [
        workload_set(),
        custom(_e19_representations),
    ],
    # E21 — fault-tolerant execution (all behavior gates)
    "E21": [
        summary_expect(
            "completion_rate", 1.0, "completion rate 1.0 == 1.0"
        ),
        summary_expect(
            "identical_all", True, "every recovered run bit-identical to fault-free"
        ),
        overhead_bound(),
        chaos_injected(),
        custom(_e21_entries),
        workload_list(),
    ],
    # E22 — online serving
    "E22": [
        workload_set(),
        custom(_e22_throughput),
        floor(
            "throughput/batch64",
            "speedup_vs_unbatched",
            "batch-64 speedup {e[speedup_vs_unbatched]:.2f} >= 3.0 "
            "(within-capture bound)",
            bound=3.0,
        ),
        flag(
            "cache/skewed_entities",
            "counts_exact",
            "cache hit/miss ledger exactly matches the request stream",
        ),
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
        flag(
            "canary/hash_split",
            "exact_split",
            "canary split exactly matches the hash router",
        ),
        match_baseline(
            "canary/hash_split",
            "canary_requests",
            "canary count {e[canary_requests]} == baseline "
            "{b[canary_requests]} (same seed, same split)",
        ),
        flag(
            "admission/bounded_queue",
            "queue_shed_exact",
            "burst past capacity shed exactly {e[queue_shed]} requests",
        ),
        custom(_e22_admission_chaos),
    ],
    # E23 — adaptive re-optimization
    "E23": [
        workload_set(),
        flag(
            "fallback/power_iteration",
            "initially_misplanned",
            "fallback leg starts from the wrong (csr) plan",
        ),
        ceiling(
            "fallback/power_iteration",
            "corrected_at_iteration",
            "fallback plan corrected at iteration "
            "{e[corrected_at_iteration]} within the correction budget",
            bound=2,
            meta_key="max_correction_iterations",
        ),
        expect(
            "fallback/power_iteration",
            "fallbacks_after_correction",
            0,
            "zero densify fallbacks after the correction",
        ),
        flag(
            "fallback/power_iteration",
            "bit_identical",
            "corrected run bit-identical to the no-feedback run",
        ),
        floor(
            "fallback/power_iteration",
            "post_correction_speedup",
            "post-correction speedup {e[post_correction_speedup]:.2f} "
            "clears the published floor (within-capture bound)",
            bound=1.2,
            meta_key="min_fallback_speedup",
        ),
        ceiling(
            "dispatch/fine_grained",
            "corrected_at_iteration",
            "dispatch corrected at iteration {e[corrected_at_iteration]} "
            "within the correction budget",
            bound=2,
            meta_key="max_correction_iterations",
        ),
        expect(
            "dispatch/fine_grained",
            "learned_action",
            "serial",
            "losing site learned action {e[learned_action]!r} == 'serial'",
        ),
        flag(
            "dispatch/fine_grained",
            "results_identical",
            "serial dispatch produced identical results",
        ),
        expect(
            "replan/stale_store",
            "replans",
            1,
            "stale plan demoted in exactly 1 replan (got {e[replans]})",
        ),
        parity(
            "replan/stale_store",
            "weight_parity",
            "adaptive weights parity {e[weight_parity]:.1e} <= 1e-09",
        ),
        flag(
            "replan/stale_store",
            "resume_bit_identical",
            "checkpoint-resume oracle: bitwise across the mid-run switch",
        ),
        flag(
            "replan/stale_store",
            "kmeans_bit_identical",
            "kmeans stale-binding correction bit-identical",
        ),
        floor(
            "replan/stale_store",
            "adaptive_vs_pinned_speedup",
            "adaptive vs stale-pinned speedup "
            "{e[adaptive_vs_pinned_speedup]:.2f} clears the published "
            "floor (within-capture bound)",
            bound=1.02,
            meta_key="min_replan_speedup",
        ),
        wall_speedup("replan/stale_store", "adaptive_vs_pinned_speedup"),
        overhead_bound("overhead/disabled_path"),
    ],
    # E24 — lineage-aware materialization
    "E24": [
        workload_set(),
        flag(
            "grid/feature_subsets",
            "counts_exact",
            "cold ledger exact: misses == puts == {e[pairs]} "
            "(subset x fold), warm hits match",
        ),
        flag(
            "grid/feature_subsets",
            "bit_identical",
            "warm sweep bit-identical to cold",
        ),
        flag(
            "grid/feature_subsets",
            ("restart_bit_identical", "restart_exact"),
            "restart instance served all {e[restart_disk_hits]} "
            "statistics from disk, bit-identically",
        ),
        flag(
            "grid/feature_subsets",
            "cross_workload_exact",
            "second workload reused {e[cross_workload_hits]} statistics, "
            "computed {e[cross_workload_misses]} new (both exact)",
        ),
        floor(
            "grid/feature_subsets",
            "speedup",
            "warm grid speedup {e[speedup]:.2f} clears the published "
            "floor (within-capture bound)",
            bound=3.0,
            meta_key="min_grid_speedup",
        ),
        wall_speedup("grid/feature_subsets", "speedup"),
        flag(
            "repair/corrupted_entries",
            "counts_exact",
            "{e[corrupted]} corrupted entries -> exactly "
            "{e[recomputes]} lineage recomputes",
        ),
        flag(
            "repair/corrupted_entries",
            "bit_identical",
            "repaired sweep bit-identical to the cold reference",
        ),
        flag(
            "repair/corrupted_entries",
            ("chaos_counts_exact", "chaos_bit_identical"),
            "chaos (every read corrupts): {e[chaos_corrupt_entries]} "
            "entries repaired bit-identically",
        ),
        overhead_bound("overhead/disabled_path"),
        flag(
            "overhead/disabled_path",
            "plans_identical",
            "compiled plans byte-identical with and without an active store",
        ),
        flag(
            "eviction/capacity_ledger",
            "evictions_exact",
            "evictions exactly puts - capacity ({e[cold_evictions]} = "
            "{e[pairs]} - {e[capacity_entries]})",
        ),
        flag(
            "eviction/capacity_ledger",
            ("all_served", "bit_identical"),
            "capacity-bounded warm sweep served every statistic "
            "bit-identically",
        ),
        flag(
            "eviction/capacity_ledger",
            "pinned_resident",
            "pinned entry survived eviction pressure",
        ),
    ],
    # E25 — incremental maintenance over dynamic tables
    "E25": [
        workload_set(),
        flag(
            "refresh/delta_vs_snapshot",
            "bit_identical",
            "delta-refreshed weights bit-identical to snapshot retrain "
            "every round",
        ),
        flag(
            "refresh/delta_vs_snapshot",
            "ledger_exact",
            "fold ledger exact: {e[rows_folded]} rows folded == closed "
            "form {e[rows_folded_expected]}",
        ),
        expect(
            "refresh/delta_vs_snapshot",
            "recomputes",
            0,
            "zero lineage recomputes on the clean delta stream",
        ),
        floor(
            "refresh/delta_vs_snapshot",
            "speedup",
            "delta refresh speedup {e[speedup]:.2f} clears the published "
            "floor (within-capture bound)",
            bound=5.0,
            meta_key="min_refresh_speedup",
        ),
        wall_speedup("refresh/delta_vs_snapshot", "speedup"),
        chaos_injected(),
        custom(_e25_chaos_entries),
        flag(
            "serving/e2e_refresh",
            "identical",
            "served value after hot-swap equals compiled snapshot retrain",
        ),
        flag(
            "serving/e2e_refresh",
            ("cache_invalidated", "prediction_changed"),
            "promote eagerly invalidated the prediction cache",
        ),
        flag(
            "serving/e2e_refresh",
            "versions_chained",
            "refreshed versions chain lineage through the registry",
        ),
        overhead_bound(),
    ],
    # E26 — sharded serving fabric
    "E26": [
        workload_set(),
        flag(
            "fleet/multitenant",
            "bit_identical",
            "{e[requests]:,} fleet requests bit-identical to the "
            "single-server oracle",
        ),
        flag(
            "fleet/multitenant",
            "ledger_exact",
            "fleet ledger exact: {e[ledger][replica_hits]:,} replica hits"
            " == route-oracle replay",
        ),
        expect(
            "failover/mid_stream_kill",
            "wrong_answers",
            0,
            "mid-stream kill produced zero wrong answers",
        ),
        flag(
            "failover/mid_stream_kill",
            "ledger_exact",
            "failover ledger exact: {e[failovers]:,} failovers == "
            "{e[expected_failovers]:,} expected from route replay",
        ),
        match_baseline(
            "failover/mid_stream_kill",
            "failovers",
            "failovers {e[failovers]:,} == baseline {b[failovers]:,} "
            "(seeded stream is deterministic)",
        ),
        fields_equal(
            "failover/mid_stream_kill",
            "epoch_invalidations",
            "revive_dropped",
            "revive invalidated exactly the {e[revive_dropped]:,} entries "
            "the epoch ledger counted",
        ),
        flag(
            "quota/hot_tenant",
            "quota_exact",
            "hot tenant shed {e[hot_shed]} == token-bucket replay "
            "{e[expected_hot_shed]}",
        ),
        match_baseline(
            "quota/hot_tenant",
            "hot_shed",
            "hot-tenant sheds {e[hot_shed]} == baseline {b[hot_shed]} "
            "(deterministic schedule)",
        ),
        expect(
            "quota/hot_tenant",
            "cold_shed",
            0,
            "cold tenants shed nothing (isolation holds)",
        ),
        flag(
            "canary/fleet_split",
            "exact_split",
            "fleet canary split exactly matches the hash router",
        ),
        match_baseline(
            "canary/fleet_split",
            "canary_requests",
            "fleet canary count {e[canary_requests]:,} == baseline "
            "{b[canary_requests]:,} (same seed, same split)",
        ),
        custom(_e26_chaos_sweep),
        flag(
            "overhead/single_shard",
            "bit_identical",
            "single-shard fast path bit-identical to the plain server",
        ),
        flag(
            "overhead/single_shard",
            "overhead_ok",
            "single-shard overhead {e[overhead_pct]:.2f}% under the "
            "{m[max_overhead_pct]:.0f}% bound (within-capture)",
        ),
        flag(
            "scaling/shards2",
            "balanced",
            "2-shard fleet balanced: max load {e[balance_ratio]:.2f}x "
            "fair share",
        ),
        flag(
            "scaling/shards4",
            "balanced",
            "4-shard fleet balanced: max load {e[balance_ratio]:.2f}x "
            "fair share",
        ),
    ],
    # E27 — feature store with online/offline parity and drift gating
    "E27": [
        workload_list(),
        flag(
            "parity/online_offline",
            ("bit_identical", "ledger_exact", "parity_oracle"),
            "{e[serves]:,} skewed online serves bit-identical to the "
            "offline slice, serve ledger exact",
        ),
        flag(
            "refresh/delta_vs_recompute",
            "bit_identical",
            "delta-refreshed feature rows bit-identical to full "
            "rematerialization every round",
        ),
        flag(
            "refresh/delta_vs_recompute",
            "ledger_exact",
            "fold ledger exact: {e[deltas_applied]} deltas, "
            "{e[rows_folded]} rows folded == closed form",
        ),
        expect(
            "refresh/delta_vs_recompute",
            "recomputes",
            0,
            "zero recomputes on the clean delta stream",
        ),
        floor(
            "refresh/delta_vs_recompute",
            "speedup",
            "delta refresh speedup {e[speedup]:.2f} clears the published "
            "floor (within-capture bound)",
            bound=3.0,
            meta_key="min_refresh_speedup",
        ),
        wall_speedup("refresh/delta_vs_recompute", "speedup"),
        custom(_e27_gate_rollout),
        chaos_injected(),
        custom(_e27_chaos_entries),
        overhead_bound(),
    ],
}


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
    experiment = cand.get("meta", {}).get("experiment")
    base_experiment = base.get("meta", {}).get("experiment")
    if experiment != base_experiment:
        print(
            f"error: candidate is {experiment!r} but baseline is "
            f"{base_experiment!r}"
        )
        return 1
    rules = GATES.get(experiment)
    if rules is None:
        print(f"error: no regression checks registered for {experiment!r} "
              f"(known: {sorted(GATES)})")
        return 1

    cand_chaos = bool(cand.get("meta", {}).get("chaos_active"))
    base_chaos = bool(base.get("meta", {}).get("chaos_active"))
    if cand_chaos != base_chaos:
        # Shed/retry/fault ledgers are only meaningful between like
        # captures; a chaos capture never gates against a clean baseline.
        print(
            f"error: candidate chaos_active={cand_chaos} but baseline "
            f"chaos_active={base_chaos}; capture a matching baseline "
            f"(meta.chaos_seed_env: {cand.get('meta', {}).get('chaos_seed_env')!r}"
            f" vs {base.get('meta', {}).get('chaos_seed_env')!r})"
        )
        return 1

    print(
        f"{experiment}: candidate cpus={cand.get('meta', {}).get('cpu_count')}, "
        f"baseline cpus={base.get('meta', {}).get('cpu_count')}"
    )

    ctx = GateContext(cand, base, args.tolerance)
    gate = Gate()
    for rule in rules:
        rule(ctx, gate)
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
