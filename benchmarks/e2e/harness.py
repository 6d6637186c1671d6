"""One run of one workload: set-up, warm-up, timed region, oracle.

A run is a closed loop with one client thread issuing units back to
back (the fabric is in-process and synchronous). The untraced run
(``trace=False``) yields the end-to-end metrics; the traced run yields
the per-layer table. Every timing is taken by the harness with
``time.perf_counter`` over *all* samples — never from the 512-slot
``obs.Histogram`` reservoirs — and the sample count is reported beside
the percentiles.

Phases of a run::

    set-up x SETUP_REPEATS   build inputs from the seed, tables, models,
                             feature views, the fleet; run the warm-up
                             units. ``setup_s`` is the median.
    reference slice          traced run only: a slice of units, untraced,
                             so the same process yields the tracing
                             overhead
    timed region             the remaining units, in slices of ~0.1 s
                             with the speed kernel between slices
    oracle                   outputs against the workload's oracle

Machine-normalised time. The reference box's speed moves by tens of
percent over seconds and minutes (a fixed kernel's CPU time, not only
its wall time, does), so raw wall-clock medians of identical runs differ
by more than any bound worth setting. The harness therefore times a
fixed *speed kernel* between slices, and scales each slice's timings by
``REFERENCE_KERNEL_MS / kernel time around that slice``. End-to-end
times are thus "as on the reference box in its quiet state"; they move
when the code moves and stay put when the machine does. The raw values
are printed beside them, and the per-layer table is raw.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
import zlib
from pathlib import Path

import numpy as np

from repro import obs

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: nominal length of one slice of the timed region; the speed kernel
#: runs between slices, so this is how local the normalisation is
SLICE_SECONDS = 0.1
#: throughput is the median over this many consecutive blocks of
#: slices, so that what normalisation leaves of a stall moves one block
#: and not the result
BLOCKS = 10
#: a window's p95 needs this many samples; a slice that has them is a
#: window of its own, otherwise the blocks are the windows
MIN_TAIL_SAMPLES = 20
#: the speed kernel's time on the reference box when it is quiet
REFERENCE_KERNEL_MS = 5.5
#: share of the units a traced run spends, untraced, on its reference
REFERENCE_SHARE = 1 / 16

_clock = time.perf_counter
_KERNEL_ROWS = np.random.default_rng(0).normal(size=(64, 16))
_KERNEL_WEIGHTS = np.random.default_rng(1).normal(size=16)


def declared() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds
    are declared. The harness emits exactly the declared names."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def speed_kernel_ms() -> float:
    """Time one pass of the speed kernel: fixed work with the mix the
    workloads have — interpreter dispatch, dict and tuple churn, and
    small-array numpy calls. On the reference box its time tracks a
    serving slice's (correlation 0.85 over minutes)."""
    table = {}
    total = 0.0
    start = _clock()
    for i in range(4000):
        row = _KERNEL_ROWS[i & 63]
        key = ("kernel", i & 255)
        table[key] = zlib.crc32(
            np.ascontiguousarray(row).tobytes(), table.get(key, 0)
        )
        total += float(row @ _KERNEL_WEIGHTS)
    return (_clock() - start) * 1e3


def _percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) if len(samples) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _run_units(workload, first: int, last: int, tracer=None) -> float:
    """Run units ``[first, last)`` back to back; returns the wall."""
    start = _clock()
    if tracer is None:
        for i in range(first, last):
            workload.unit(i)
    else:
        for i in range(first, last):
            tracer.begin_unit(i)
            workload.unit(i)
            tracer.end_unit()
    return _clock() - start


class Slice:
    """One slice of the timed region and the machine's speed around it."""

    __slots__ = ("work", "wall", "slowness", "samples", "normal_samples")

    def __init__(self, work, wall, kernel_ms, samples):
        self.work = work
        self.wall = wall
        #: > 1 when the machine ran slower than the reference
        self.slowness = kernel_ms / REFERENCE_KERNEL_MS
        self.samples = samples
        self.normal_samples = [s / self.slowness for s in samples]


def _run_slices(workload, first, last, per_slice, tracer=None) -> list[Slice]:
    """Run units ``[first, last)`` in slices with the speed kernel
    between them; a slice is scaled by the mean of the kernel times
    just before and just after it."""
    slices = []
    kernel_before = speed_kernel_ms()
    for lo in range(first, last, per_slice):
        hi = min(lo + per_slice, last)
        seen = len(workload.latencies)
        wall = _run_units(workload, lo, hi, tracer)
        kernel_after = speed_kernel_ms()
        slices.append(Slice(
            workload.work(lo, hi), wall,
            (kernel_before + kernel_after) / 2, workload.latencies[seen:],
        ))
        kernel_before = kernel_after
    return slices


def _end_to_end(
    slices: list[Slice], setups: list[tuple], passed: float
) -> tuple[dict, dict]:
    """The end-to-end metrics, machine-normalised, and the raw ones."""
    blocks = [
        list(block) for block in np.array_split(
            np.array(slices, dtype=object), min(BLOCKS, len(slices))
        )
    ]
    windows = [
        [sl] for sl in slices if len(sl.samples) >= MIN_TAIL_SAMPLES
    ]
    if len(windows) < len(blocks):
        windows = blocks
    samples = [s for sl in slices for s in sl.normal_samples]
    raw = [s for sl in slices for s in sl.samples]
    metrics = {
        "setup_s": statistics.median(wall / slow for wall, slow in setups),
        # work that failed the oracle is not throughput
        "throughput": passed * statistics.median(
            sum(sl.work for sl in block)
            / sum(sl.wall / sl.slowness for sl in block)
            for block in blocks
        ),
        "latency_p50_ms": _percentile(samples, 50) * 1e3,
        # The tail as a quiet window sees it: a stall shorter than a
        # slice escapes the kernel and lands in some windows' tails, so
        # the lower quartile over windows, not the median, is what
        # repeats (5 % against 8-12 % over eight runs).
        "latency_p95_ms": 1e3 * _percentile([
            _percentile([s for sl in window for s in sl.normal_samples], 95)
            for window in windows
        ], 25),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    unscaled = {
        "setup_s": statistics.median(wall for wall, _ in setups),
        "throughput": passed * sum(sl.work for sl in slices)
        / sum(sl.wall for sl in slices),
        "latency_p50_ms": _percentile(raw, 50) * 1e3,
        "latency_p95_ms": _percentile(raw, 95) * 1e3,
        "slowness": statistics.median(sl.slowness for sl in slices),
    }
    return metrics, unscaled


def _layer_metrics(workload, after: dict, delta: dict, tracer: Tracer,
                   names: set) -> dict:
    """The per-layer table: self times from the tracer, counts from the
    ledgers' movement over the timed region."""
    metrics = {}
    for key, (_, self_ns) in tracer.totals.items():
        name = key.split("#")[0]
        metrics[name] = metrics.get(name, 0.0) + self_ns / 1e6
    # counters a ledger reports under the declared name pass through
    metrics.update({k: v for k, v in delta.items() if k in names})

    def share(hit: str, miss: str) -> float:
        return _ratio(delta.get(hit, 0), delta.get(hit, 0) + delta.get(miss, 0))

    metrics.update({
        "serving.fabric.calls": tracer.calls("serving.fabric.self_ms"),
        "serving.ring.lookups": tracer.calls("serving.ring.self_ms"),
        "serving.cache.gets": (
            delta.get("serving.cache.hits", 0)
            + delta.get("serving.cache.misses", 0)
        ),
        "serving.cache.puts": tracer.calls("serving.cache.self_ms#put"),
        "serving.cache.hit_ratio": share(
            "serving.cache.hits", "serving.cache.misses"
        ),
        "serving.batcher.mean_batch": _ratio(
            delta.get("serving.batcher.rows", 0),
            delta.get("serving.batcher.batches", 0),
        ),
        "compiler.plan_cache_hit_ratio": share(
            "compiler.plancache.hits", "compiler.plancache.misses"
        ),
        "runtime.bufferpool.hit_ratio": share(
            "runtime.bufferpool.hits", "runtime.bufferpool.misses"
        ),
        "compression.ratio": _ratio(
            delta.get("compression.dense_bytes", 0),
            delta.get("compression.compressed_bytes", 0),
        ),
        # set-up work, reported so that work moved into set-up shows
        "features.store.materialize_ms": workload.materialize_ms,
        "materialize.store.hits": after.get("materialize.store.hits", 0),
        "materialize.store.misses": after.get("materialize.store.misses", 0),
        "train.first_pass_s": workload.first_pass_s,
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload once; returns the result document.

    ``metrics`` holds every declared end-to-end metric (untraced) or
    every declared per-layer metric (traced), and nothing else.
    """
    spec = declared()
    cls = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    timed_units = max(1, round(cls.units_per_second * seconds))
    reference_units = (
        max(1, round(timed_units * REFERENCE_SHARE)) if trace else 0
    )
    units = cls.warm_units + reference_units + timed_units
    per_slice = max(1, round(cls.units_per_second * SLICE_SECONDS))

    workload = None
    setups = []  # (wall, slowness) of each set-up
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = None  # release the previous build before the next
        kernel_before = speed_kernel_ms()
        start = _clock()
        obs.reset()
        workload = cls(seed, units, OUT_DIR)
        _run_units(workload, 0, cls.warm_units)
        wall = _clock() - start
        kernel = (kernel_before + speed_kernel_ms()) / 2
        setups.append((wall, kernel / REFERENCE_KERNEL_MS))

    # Objects built so far live for the whole run: keep the collector
    # from rescanning them on every generation-2 pass it makes while
    # the timed region allocates.
    gc.collect()
    gc.freeze()
    tracer = None
    try:
        first = cls.warm_units
        if trace:
            reference = _run_slices(
                workload, first, first + reference_units, per_slice
            )
            first += reference_units
            tracer = Tracer(cls.units_per_record)
            workload.instrument(tracer)
        calls_before = len(workload.call_latencies)
        before = workload.counts()
        slices = _run_slices(workload, first, units, per_slice, tracer)
        after = workload.counts()
    finally:
        if tracer is not None:
            tracer.remove()
        gc.unfreeze()

    verdict = workload.check(first, units)
    wall = sum(sl.wall for sl in slices)
    samples = sum(len(sl.samples) for sl in slices)
    unscaled = {}
    if not trace:
        metrics, unscaled = _end_to_end(
            slices, setups, 1.0 - verdict.failed / verdict.attempted
        )
        declared_metrics = spec["end_to_end"]
    else:
        delta = {k: after[k] - before[k] for k in after}
        metrics = _layer_metrics(
            workload, after, delta, tracer,
            {m["name"] for m in spec["per_layer"]},
        )
        calls = workload.call_latencies[calls_before:]
        # both sides machine-normalised: the box's speed may have moved
        # between the reference slice and the traced region
        def normal_wall(part):
            return sum(sl.wall / sl.slowness for sl in part)

        overhead = (
            normal_wall(slices) / timed_units
            / (normal_wall(reference) / reference_units) - 1.0
        )
        metrics.update({
            "harness.wall_ms": wall * 1e3,
            "harness.self_ms": wall * 1e3 - tracer.total_ms(),
            "harness.calls": len(calls),
            "harness.latency_samples": samples,
            "harness.call_p50_ms": _percentile(calls, 50) * 1e3,
            "harness.call_p99_ms": _percentile(calls, 99) * 1e3,
            "harness.trace_overhead_pct": overhead * 100.0,
            "calib.kernel_ms": REFERENCE_KERNEL_MS * statistics.median(
                sl.slowness for sl in slices
            ),
        })
        declared_metrics = spec["per_layer"]
        tracer.write_jsonl(OUT_DIR / f"trace-{name}-{seed}.jsonl")
    workload.close()

    undeclared = set(metrics) - {m["name"] for m in declared_metrics}
    if undeclared:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(undeclared)}")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems[:20],
        "samples": samples,
        "timed_wall_s": wall,
        "latency_of": cls.latency_of,
        "throughput_of": cls.throughput_of,
        "unscaled": unscaled,
        "metrics": {
            m["name"]: {
                "value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]
            }
            for m in declared_metrics
        },
    }
