"""Experiment-run tracking.

An :class:`ExperimentTracker` records runs — parameters, metrics and
wall-clock — under named experiments, and answers the comparison
queries an ML workflow needs (best run, runs of an experiment).
Runs are append-only; a finished run is immutable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import LifecycleError


@dataclass
class Run:
    """One experiment run."""

    run_id: int
    experiment: str
    params: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    started_at: float = field(default_factory=time.time)
    finished_at: float | None = None

    @property
    def is_finished(self) -> bool:
        return self.finished_at is not None

    @property
    def duration(self) -> float:
        if self.finished_at is None:
            raise LifecycleError(f"run {self.run_id} has not finished")
        return self.finished_at - self.started_at

    def log_metric(self, name: str, value: float) -> None:
        self._check_open()
        self.metrics[name] = float(value)

    def finish(self) -> None:
        self._check_open()
        self.finished_at = time.time()

    def _check_open(self) -> None:
        if self.finished_at is not None:
            raise LifecycleError(f"run {self.run_id} is already finished")


class ExperimentTracker:
    """Append-only store of runs grouped by experiment name."""

    def __init__(self) -> None:
        self._runs: list[Run] = []

    def start_run(
        self, experiment: str, params: dict[str, Any] | None = None
    ) -> Run:
        run = Run(
            run_id=len(self._runs) + 1,
            experiment=experiment,
            params=dict(params or {}),
        )
        self._runs.append(run)
        return run

    def runs(
        self, experiment: str | None = None, finished_only: bool = False
    ) -> list[Run]:
        out = []
        for run in self._runs:
            if experiment is not None and run.experiment != experiment:
                continue
            if finished_only and not run.is_finished:
                continue
            out.append(run)
        return out

    def best_run(self, experiment: str, metric: str) -> Run:
        """The finished run of ``experiment`` with the highest ``metric``."""
        candidates = [
            r for r in self.runs(experiment, finished_only=True) if metric in r.metrics
        ]
        if not candidates:
            raise LifecycleError(
                f"no finished run of {experiment!r} records {metric!r}"
            )
        return max(candidates, key=lambda r: r.metrics[metric])

    def experiments(self) -> list[str]:
        return sorted({r.experiment for r in self._runs})

    def __iter__(self) -> Iterator[Run]:
        return iter(self._runs)

    def __len__(self) -> int:
        return len(self._runs)
