#!/usr/bin/env python3
"""E28 — the whole-loop benchmark: one command, every metric by name.

Three ways in::

    # one run of one workload (what the benchmark driver calls); the
    # last line of stdout is the result object
    python3 benchmarks/e2e/run.py --workload serve_hot --seed 2017 \\
        --seconds 20 --trace 0

    # every workload (or one), each in a fresh child process, untraced
    # then traced; prints both tables, writes the capture
    python3 benchmarks/e2e/run.py --seed 2017 [--workload NAME] \\
        [--repeats N] [--out FILE]

    # hold two captures to the bounds in BENCHMARK.json
    python3 benchmarks/e2e/run.py compare A.json B.json

Exits non-zero when any oracle fails. See README.md beside this file.
"""

from __future__ import annotations

import os

# nproc is 2 here: one BLAS thread keeps the second core for the OS and
# keeps runs comparable. Must precede the first numpy import.
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _print_table(result: dict) -> None:
    mode = "traced, per-layer" if result["trace"] else "untraced, end-to-end"
    print(
        f"\n{result['workload']}  seed={result['seed']}  ({mode})  "
        f"timed {result['timed_wall_s']:.2f} s, "
        f"{result['samples']} latency samples, "
        f"{result['failed']}/{result['attempted']} failed"
    )
    if not result["trace"]:
        print(f"  latency    = {result['latency_of']}")
        print(f"  throughput = {result['throughput_of']} per second")
    for name, metric in result["metrics"].items():
        line = f"  {name:<40} {metric['value']:>18.6f} {metric['unit']}"
        if name in result["unscaled"]:
            line += f"   (raw {result['unscaled'][name]:.6f})"
        print(line)
    if result["unscaled"]:
        print(f"  times are machine-normalised; the machine ran at "
              f"{result['unscaled']['slowness']:.3f}x the reference kernel time")
    for problem in result["problems"]:
        print(f"  ! {problem}")


def run_one(args) -> int:
    """Driver mode: one workload, one mode, in this process."""
    from harness import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    _print_table(result)
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh interpreter; its last stdout line is the
    result. A child that fails its oracle still reports."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: child exited {proc.returncode} "
                         f"without a result")
    print("\n".join(lines[:-1]))
    return result


def run_all(args) -> int:
    """Capture mode: every workload, untraced then traced, per seed."""
    import numpy

    from harness import declared

    spec = declared()
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]
    ]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    capture = {
        "meta": {
            "seed": args.seed,
            "repeats": args.repeats,
            "seconds": seconds,
            "load": "closed loop, 1 client thread, calls back to back",
            "cpu_count": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
            "repro_num_threads": os.environ.get("REPRO_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "runs": [],
    }
    ok = True
    for workload in names:
        for seed in range(args.seed, args.seed + args.repeats):
            for trace in (0, 1):
                result = _child(workload, seed, seconds, trace)
                ok = ok and result["correct"]
                capture["runs"].append(
                    {"workload": workload, "seed": seed, "trace": trace}
                    | result
                )
    if args.out:
        Path(args.out).write_text(json.dumps(capture, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    print("\nall oracles passed" if ok else "\nORACLE FAILURE")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of the timed region "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="give it to run one workload in this process")
    parser.add_argument("--repeats", type=int, default=1,
                        help="capture mode: seeds seed .. seed+repeats-1")
    parser.add_argument("--out", default=None, help="capture mode: JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        # the benchmark measures the checkout it sits in, nothing else
        sys.exit(f"run.py: no src/repro under {ROOT}; run it in a checkout")
    if args.trace is None:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
