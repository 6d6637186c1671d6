"""Benchmark-suite configuration.

Each ``bench_*.py`` module regenerates one experiment from DESIGN.md's
index (E1..E27; E28 is the whole-loop harness under ``e2e/``). Run with::

    pytest benchmarks/ --benchmark-only

For the full printed experiment tables (the rows EXPERIMENTS.md records),
run ``python benchmarks/run_experiments.py``.
"""

import os
import platform

import pytest


def bench_metadata(experiment: str) -> dict:
    """Shared environment block every ``BENCH_*.json`` meta must embed.

    Records the knobs that make two benchmark captures comparable:
    hardware parallelism, the ``REPRO_NUM_THREADS`` override (if any),
    the parallel backend defaults, and interpreter/library versions.

    ``cpu_count`` is load-bearing: ``check_regression.py`` compares
    wall-clock speedups only between captures whose core counts match
    (the committed quick baselines were captured on a 1-CPU builder, so
    multi-core CI runners gate on behavior metrics alone).

    ``chaos_seed_env``/``chaos_active`` record whether the capture ran
    under fault injection: ``check_regression.py`` refuses to compare a
    chaos capture against a clean baseline (or vice versa), because shed
    and retry counters are only meaningful between like captures.
    """
    import numpy as np

    from repro.resilience import active_chaos
    from repro.runtime.parallel import (
        ParallelContext,
        default_cost_threshold,
        default_num_threads,
    )

    return {
        "experiment": experiment,
        "cpu_count": os.cpu_count(),
        "repro_num_threads": os.environ.get("REPRO_NUM_THREADS"),
        "effective_workers": default_num_threads(),
        "backend": ParallelContext().backend,
        "default_threshold": default_cost_threshold(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "tracing": os.environ.get("REPRO_TRACE") in ("1", "true", "yes", "on"),
        "chaos_seed_env": os.environ.get("REPRO_CHAOS_SEED"),
        "chaos_active": active_chaos() is not None,
    }


@pytest.fixture(scope="session")
def benchmark_seed() -> int:
    return 2017  # the tutorial's year, for determinism
