"""Hold two captures to the bounds declared in ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py compare A.json B.json`` — A is the
parent (or the first set of runs), B the change (or the second set).
Both come from ``run.py --out``; run them with the same ``--seed`` and
``--repeats`` so the seeds pair up.

For every workload x end-to-end metric the medians over each capture's
seeds are compared against the metric's bound:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  either capture's own spread (interquartile distance over
                its median, as ``statistics.quantiles(n=4)`` gives it) is
                wider than the bound, so the comparison cannot tell

Every per-layer count (unit ``count`` or ``ratio``) must be *identical*
between the two captures' traced runs of the same workload and seed:
counts come from ledgers, and the same inputs do the same work.

Exits 1 on any ``worse``, any count that differs, or any failed oracle.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

EXACT_UNITS = ("count", "ratio")


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def judge(a: list[float], b: list[float], better: str, bound: float):
    """(verdict, how much worse B's median is than A's, as a share)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / abs(med_a)
    if better == "higher":
        worse_by = -worse_by
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def _index(capture: dict, trace: int) -> dict:
    """(workload, seed) -> metrics of the capture's runs in one mode."""
    return {
        (run["workload"], run["seed"]): run["metrics"]
        for run in capture["runs"] if run["trace"] == trace
    }


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    lines, failed = [], False
    for label, capture in (("A", a), ("B", b)):
        for run in capture["runs"]:
            if not run["correct"]:
                failed = True
                lines.append(
                    f"oracle failed in {label}: {run['workload']} "
                    f"seed {run['seed']} ({run['failed']} of {run['attempted']})"
                )
    end_a, end_b = _index(a, 0), _index(b, 0)
    lines.append(
        f"{'workload':<12} {'metric':<16} {'A median':>14} {'B median':>14} "
        f"{'worse by':>9} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict"
    )
    workloads = sorted({w for w, _ in end_a} & {w for w, _ in end_b})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = (
                [m[name]["value"] for (w, _), m in sorted(side.items())
                 if w == workload]
                for side in (end_a, end_b)
            )
            verdict, worse_by = judge(va, vb, metric["better"], metric["bound"])
            failed = failed or verdict == "worse"
            lines.append(
                f"{workload:<12} {name:<16} {statistics.median(va):>14.5f} "
                f"{statistics.median(vb):>14.5f} {worse_by:>+9.1%} "
                f"{metric['bound']:>6.0%} {spread(va):>9.1%} "
                f"{spread(vb):>9.1%}  {verdict} (n={len(va)},{len(vb)})"
            )
    layer_a, layer_b = _index(a, 1), _index(b, 1)
    exact = [
        m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS
    ]
    checked = differing = 0
    for key in sorted(set(layer_a) & set(layer_b)):
        for name in exact:
            checked += 1
            x, y = layer_a[key][name]["value"], layer_b[key][name]["value"]
            if x != y:
                differing += 1
                lines.append(
                    f"count differs: {key[0]} seed {key[1]} {name}: {x} != {y}"
                )
    failed = failed or differing > 0
    lines.append(
        f"counts: {checked - differing} of {checked} identical over "
        f"{len(set(layer_a) & set(layer_b))} traced run pairs"
    )
    return lines, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, failed = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if failed else 0
