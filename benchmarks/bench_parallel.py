#!/usr/bin/env python3
"""E18 — Cost-aware parallel execution engine.

Sweeps thread counts x input sizes across the three wired hot paths —
compressed matvec (CLA column groups), parallel UDA logistic regression
(Bismarck partitions), and grid search (model selection) — and shows the
cost-threshold crossover: above-threshold inputs fan out to the shared
pool, below-threshold inputs dispatch serially (fallback counter > 0)
with < 5% overhead.

Usage::

    python benchmarks/bench_parallel.py                  # full sweep
    python benchmarks/bench_parallel.py --quick          # CI smoke run
    python benchmarks/bench_parallel.py --quick --out BENCH_parallel_quick.json

Speedups > 1 require actual cores: on a single-CPU machine the engine
still dispatches (utilization is reported honestly) but wall-clock gains
are impossible by construction.
"""

from __future__ import annotations

import argparse

import numpy as np

import harness
from repro.compression import CompressedMatrix
from repro.data import make_classification, make_low_cardinality_matrix
from repro.indb.gradient import train_igd
from repro.ml import LogisticRegression
from repro.ml.losses import LogisticLoss
from repro.runtime.parallel import ParallelContext
from repro.selection import grid_search
from repro.storage import Table


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _thread_sweep(threads, repeats, serial, parallel, agree) -> dict:
    """Time ``serial()`` once, then ``parallel(ctx)()`` per worker count
    through a zero-threshold context; ``agree(out, ref)`` is the parity
    check of each parallel result against the serial one."""
    t_serial = harness.timed(serial, repeats)
    rows = []
    for workers in threads:
        with ParallelContext(max_workers=workers, cost_threshold=0) as ctx:
            t_par = harness.timed(parallel(ctx), repeats)
            assert agree(t_par.result, t_serial.result), "parallel run diverged"
            rows.append(
                {
                    "threads": workers,
                    **t_par.fields("seconds"),
                    "speedup": t_serial.best / t_par.best,
                    "utilization": ctx.stats.realized_speedup,
                }
            )
    return {**t_serial.fields("serial_seconds"), "by_threads": rows}


def bench_compressed_matvec(threads, n, d, repeats):
    """Compressed X @ v: per-column-group partials in parallel."""
    X = make_low_cardinality_matrix(n, d, cardinality=8, seed=2017)
    C = CompressedMatrix.compress(X)
    v = np.random.default_rng(1).standard_normal(d)

    def parallel(ctx):
        C.set_parallel(ctx)
        return lambda: C.matvec(v)

    sweep = _thread_sweep(
        threads, repeats, lambda: C.matvec(v), parallel,
        lambda out, ref: np.allclose(out, ref, atol=1e-9),
    )
    C.set_parallel(False)
    return {
        "workload": "compressed_matvec",
        "n_rows": n,
        "n_cols": d,
        "nnz_equivalent": n * d,
        "column_groups": len(C.groups),
        **sweep,
    }


def bench_uda_logistic(threads, n, d, epochs, repeats):
    """Bismarck-style parallel IGD: partition states computed concurrently."""
    X, y = make_classification(n, d, separation=2.0, seed=2017)
    table = Table.from_columns(
        {f"x{i}": X[:, i] for i in range(d)} | {"y": np.where(y > 0, 1.0, -1.0)}
    )
    features = [f"x{i}" for i in range(d)]

    def train(**parallel):
        return train_igd(
            table, features, "y", LogisticLoss(),
            epochs=epochs, partitions=4, shuffle="once", seed=0, **parallel,
        )

    sweep = _thread_sweep(
        threads, repeats, train, lambda ctx: lambda: train(parallel=ctx),
        lambda out, ref: np.array_equal(out.weights, ref.weights),
    )
    return {
        "workload": "uda_logistic_igd",
        "n_rows": n,
        "n_cols": d,
        "partitions": 4,
        "epochs": epochs,
        **sweep,
    }


def bench_grid_search(threads, n, d, repeats):
    """8-configuration logistic grid search through a context's pool."""
    X, y = make_classification(n, d, separation=2.0, seed=2017)
    grid = {"l2": [1e-3, 1e-2, 1e-1, 1.0], "learning_rate": [0.5, 1.0]}
    est = LogisticRegression(max_iter=20)

    def search(**parallel):
        return grid_search(est, grid, X, y, cv=3, **parallel)

    sweep = _thread_sweep(
        threads, repeats, search, lambda ctx: lambda: search(parallel=ctx),
        lambda out, ref: out.best_params == ref.best_params,
    )
    return {
        "workload": "grid_search_8_configs",
        "n_rows": n,
        "n_cols": d,
        "configs": 8,
        **sweep,
    }


def bench_threshold_crossover(sizes, d, repeats):
    """The cost gate: small inputs fall back to serial dispatch.

    Uses the default threshold, so tiny matvecs are recorded as serial
    fallbacks and the parallel-path overhead stays < 5%.
    """
    rows = []
    # Sub-millisecond kernels need many repeats to beat timer noise.
    repeats = max(repeats, 100)
    for n in sizes:
        X = make_low_cardinality_matrix(n, d, cardinality=8, seed=7)
        C = CompressedMatrix.compress(X)
        v = np.random.default_rng(2).standard_normal(d)
        t_serial = harness.timed(lambda: C.matvec(v), repeats)

        with ParallelContext(max_workers=4) as ctx:  # default cost threshold
            C.set_parallel(ctx)
            t_gated = harness.timed(lambda: C.matvec(v), repeats)
            cost_hint = 2.0 * n * d
            above = cost_hint >= ctx.cost_threshold
            stats = ctx.stats
            if above:
                assert stats.parallel_calls >= 1, (
                    f"threshold_crossover: above-threshold n={n} dispatched "
                    f"in parallel"
                )
            else:
                assert stats.serial_fallbacks >= 1 and stats.parallel_calls == 0, (
                    f"threshold_crossover: below-threshold n={n} stayed serial"
                )
            rows.append(
                {
                    "n_rows": n,
                    "cost_hint": cost_hint,
                    "above_threshold": above,
                    "serial_fallbacks": stats.serial_fallbacks,
                    "parallel_calls": stats.parallel_calls,
                    **t_serial.fields("serial_seconds"),
                    **t_gated.fields("gated_seconds"),
                    "overhead": (t_gated.best - t_serial.best) / t_serial.best,
                }
            )
        C.set_parallel(False)
    return {"workload": "threshold_crossover", "n_cols": d, "points": rows}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, threads: list[int], repeats: int) -> dict:
    if quick:
        matvec_n, matvec_d = 60_000, 12
        uda_n, uda_d, epochs = 4_000, 8, 1
        grid_n, grid_d = 600, 6
        crossover_sizes = [500, 5_000, 50_000]
    else:
        matvec_n, matvec_d = 500_000, 20  # 1e7 nnz-equivalent
        uda_n, uda_d, epochs = 20_000, 10, 2
        grid_n, grid_d = 2_000, 8
        crossover_sizes = [500, 2_000, 10_000, 50_000, 200_000]

    return {
        "meta": {
            **harness.bench_metadata("E18"),
            "threads_swept": threads,
            "quick": quick,
        },
        "results": [
            bench_compressed_matvec(threads, matvec_n, matvec_d, repeats),
            bench_uda_logistic(threads, uda_n, uda_d, epochs, repeats),
            bench_grid_search(threads, grid_n, grid_d, repeats),
            bench_threshold_crossover(crossover_sizes, 12, repeats),
        ],
    }


def report(results: dict) -> None:
    meta = results["meta"]
    print(
        f"E18 — cost-aware parallel engine "
        f"(cpus={meta['cpu_count']}, threads={meta['threads_swept']})"
    )
    for entry in results["results"]:
        print(f"\n== {entry['workload']} ==")
        if entry["workload"] == "threshold_crossover":
            print(f"{'rows':>9} {'cost':>12} {'gate':>8} "
                  f"{'fallbacks':>9} {'overhead':>9}")
            for p in entry["points"]:
                gate = "par" if p["above_threshold"] else "serial"
                print(
                    f"{p['n_rows']:>9} {p['cost_hint']:>12.0f} {gate:>8} "
                    f"{p['serial_fallbacks']:>9} {p['overhead']:>8.1%}"
                )
            continue
        print(f"serial: {entry['serial_seconds'] * 1e3:8.2f} ms")
        for row in entry["by_threads"]:
            print(
                f"  {row['threads']} threads: {row['seconds'] * 1e3:8.2f} ms "
                f"speedup {row['speedup']:.2f}x "
                f"(pool utilization {row['utilization']:.2f}x)"
            )


def _thread_list(spec: str) -> list[int]:
    try:
        counts = [int(t) for t in spec.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {spec!r}"
        ) from None
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError(
            f"worker counts must be positive integers, got {spec!r}"
        )
    return counts


if __name__ == "__main__":
    raise SystemExit(
        harness.main(
            run,
            report,
            __doc__,
            quick_repeats=1,
            options=[
                (
                    "--threads",
                    dict(
                        type=_thread_list,
                        default=[1, 2, 4, 8],
                        help="comma-separated worker counts to sweep",
                    ),
                )
            ],
        )
    )
