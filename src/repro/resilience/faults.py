"""Deterministic fault injection: seeded chaos for assertable tests.

The surveyed systems are defined as much by how they survive failure as
by how fast they run — MapReduce/Spark re-execute lost tasks from
lineage, SystemML recomputes from the plan, parameter servers tolerate
slow and lost workers. To reproduce *recovery* behaviour we need
*failures* that are reproducible: a :class:`FaultPlan` is a seeded
schedule of faults, and a :class:`ChaosContext` makes any registered
site (a ``pmap`` task, a cluster worker RPC, a parameter-server push, a
blockstore read, an algorithm iteration) fail on demand.

Determinism contract: each ``(site, key)`` pair owns an independent RNG
stream seeded from ``(plan.seed, crc32(site), crc32(key))``, and draws
one decision per invocation. Thread scheduling cannot reorder a single
key's sequence (retries of one task are sequential), so a chaos run is
fully reproducible from the seed — tests can assert exactly which
invocations fail and that recovery produced the fault-free answer.

Fault modes:

* ``"raise"``   — raise :class:`~repro.errors.InjectedFault`.
* ``"sleep"``   — sleep ``sleep_seconds`` before continuing (straggler).
* ``"corrupt"`` — return the action to the caller, which applies the
  corruption itself (only sites that move bytes honour this mode).

When no context is installed, :func:`fault_point` is one global load and
one ``is None`` test — the disabled path stays off the profile (the E21
overhead bound covers it).
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import (
    CorruptedBlockError,
    FeatureStoreError,
    IncrementalError,
    InjectedFault,
    LoadShedError,
    MaterializationError,
    NoLiveReplicaError,
    ParallelTaskError,
    ResilienceError,
    RetryExhaustedError,
    WorkerFailure,
)
from ..obs import get_registry

_MODES = ("raise", "sleep", "corrupt")

_RETRY_TASK = ("retry", ParallelTaskError)
_RETRY_STEP = ("retry", RetryExhaustedError)

#: Every fault site under ``src/``: name (or ``prefix.*``) -> how an
#: injected fault there is recovered, and the :mod:`repro.errors` type
#: the caller sees once that recovery is exhausted (or, for a tolerated
#: drop, absent). A ``dispatch(..., site=name)`` row names the call site;
#: its tasks cross the fault point ``parallel.task.<name>``, which is how
#: a :class:`FaultPlan` addresses them.
SITES: dict[str, tuple[str, type[Exception]]] = {
    "parallel.task.*": _RETRY_TASK,
    "cla.matvec": _RETRY_TASK,
    "cla.rmatvec": _RETRY_TASK,
    "cla.tsmm": _RETRY_TASK,
    "cla.colsums": _RETRY_TASK,
    "indb.run_uda": _RETRY_TASK,
    "cluster.gradient": _RETRY_TASK,
    "cluster.loss": _RETRY_TASK,
    "selection.grid_search": _RETRY_TASK,
    "selection.random_search": _RETRY_TASK,
    "selection.halving": _RETRY_TASK,
    "glm.logreg_gd.step": _RETRY_STEP,
    "clustering.kmeans_dsl.step": _RETRY_STEP,
    "serving.score": _RETRY_STEP,
    "fabric.route": _RETRY_STEP,
    "fabric.score": ("failover", NoLiveReplicaError),
    "cluster.worker": ("lineage recompute", WorkerFailure),
    "blockstore.read": ("lineage recompute", CorruptedBlockError),
    "materialize.read": ("lineage recompute", MaterializationError),
    "incremental.apply": ("lineage recompute", IncrementalError),
    "features.refresh": ("lineage recompute", FeatureStoreError),
    "features.serve": ("fallback recompute", FeatureStoreError),
    "serving.admission": ("tolerated drop", LoadShedError),
    "paramserver.pull": ("tolerated drop", InjectedFault),
    "paramserver.push": ("tolerated drop", InjectedFault),
}


def _registered(pattern: str) -> bool:
    """Does ``pattern`` (a name or a ``prefix*``) reach a :data:`SITES` row?"""
    stem = pattern[:-1] if pattern.endswith("*") else None
    for row in SITES:
        head = row[:-1] if row.endswith("*") else None
        if stem is not None:
            if row.startswith(stem) or (head and stem.startswith(head)):
                return True
        elif pattern == row or (head and pattern.startswith(head)):
            return True
    return False


#: env var the CI chaos leg sets; tests read it through
#: :func:`chaos_seed_from_env` so one knob reseeds the whole suite.
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"


def chaos_seed_from_env(default: int = 7) -> int:
    """The chaos seed for this process (``REPRO_CHAOS_SEED`` or default)."""
    raw = os.environ.get(CHAOS_SEED_ENV, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ResilienceError(
            f"{CHAOS_SEED_ENV} must be an integer, got {raw!r}"
        ) from exc


def _stable_hash(value: object) -> int:
    """Process-independent hash (builtin ``hash`` is salted per run)."""
    return zlib.crc32(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where, how often, and what kind of failure.

    Args:
        site: exact site name, or a prefix ending in ``*`` (so
            ``"cluster.*"`` matches every cluster site).
        rate: per-invocation fault probability in [0, 1].
        mode: ``"raise"``, ``"sleep"``, or ``"corrupt"``.
        sleep_seconds: straggler duration for ``"sleep"``.
        max_faults: cap on total injections from this spec (None = no cap).
        after: skip the first N invocations of each (site, key) stream —
            lets a test guarantee some clean progress before chaos.
    """

    site: str
    rate: float
    mode: str = "raise"
    sleep_seconds: float = 0.05
    max_faults: int | None = None
    after: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ResilienceError(
                f"fault mode must be one of {_MODES}, got {self.mode!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ResilienceError(f"rate must be in [0, 1], got {self.rate}")
        if self.sleep_seconds < 0:
            raise ResilienceError("sleep_seconds must be >= 0")
        if self.after < 0:
            raise ResilienceError("after must be >= 0")

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site


@dataclass
class FaultPlan:
    """A seeded set of fault rules — the reproducible chaos schedule."""

    seed: int = 7
    specs: list[FaultSpec] = field(default_factory=list)

    def inject(
        self,
        site: str,
        rate: float,
        mode: str = "raise",
        **kwargs,
    ) -> "FaultPlan":
        """Add a rule (chainable); ``site`` must reach a :data:`SITES`
        row, so a misspelt site fails here instead of injecting nothing."""
        if not _registered(site):
            raise ResilienceError(
                f"no registered fault site matches {site!r}; "
                f"see repro.resilience.SITES"
            )
        self.specs.append(FaultSpec(site=site, rate=rate, mode=mode, **kwargs))
        return self

    def specs_for(self, site: str) -> list[FaultSpec]:
        return [s for s in self.specs if s.matches(site)]


class ChaosContext:
    """An installed :class:`FaultPlan` plus its injection ledger.

    Use as a context manager (installs globally for the block)::

        plan = FaultPlan(seed=7).inject("parallel.task.*", rate=0.2)
        with ChaosContext(plan):
            run_job()           # ~20% of tasks raise InjectedFault

    or install explicitly with :func:`install_chaos`.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._streams: dict[tuple[str, object], np.random.Generator] = {}
        self._invocations: dict[tuple[str, object], int] = {}
        #: injections per (site, mode)
        self.injected: dict[tuple[str, str], int] = {}
        self.total_injected = 0

    # ------------------------------------------------------------------
    def _stream(self, site: str, key: object) -> np.random.Generator:
        ident = (site, key)
        stream = self._streams.get(ident)
        if stream is None:
            stream = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=self.plan.seed,
                    spawn_key=(_stable_hash(site), _stable_hash(key)),
                )
            )
            self._streams[ident] = stream
        return stream

    def decide(self, site: str, key: object = None) -> FaultSpec | None:
        """One invocation's fault decision (None = proceed cleanly)."""
        specs = self.plan.specs_for(site)
        if not specs:
            return None
        with self._lock:
            ident = (site, key)
            invocation = self._invocations.get(ident, 0) + 1
            self._invocations[ident] = invocation
            for spec in specs:
                if invocation <= spec.after:
                    continue
                if spec.max_faults is not None:
                    fired = self.injected.get((site, spec.mode), 0)
                    if fired >= spec.max_faults:
                        continue
                draw = float(self._stream(site, key).random())
                if draw < spec.rate:
                    self.injected[(site, spec.mode)] = (
                        self.injected.get((site, spec.mode), 0) + 1
                    )
                    self.total_injected += 1
                    return spec
        return None

    def invocations(self, site: str) -> int:
        """Total invocations observed for a site (all keys)."""
        with self._lock:
            return sum(
                count
                for (s, _), count in self._invocations.items()
                if s == site
            )

    def total_invocations(self) -> int:
        """Fault-point crossings observed across all matched sites."""
        with self._lock:
            return sum(self._invocations.values())

    def injected_at(self, site: str) -> int:
        return sum(
            count for (s, _), count in self.injected.items() if s == site
        )

    # ------------------------------------------------------------------
    def __enter__(self) -> "ChaosContext":
        install_chaos(self)
        return self

    def __exit__(self, *exc: object) -> None:
        uninstall_chaos(self)


# ----------------------------------------------------------------------
# Global installation + the fault point every site calls
# ----------------------------------------------------------------------
_active: ChaosContext | None = None
_install_lock = threading.Lock()


def install_chaos(context: ChaosContext) -> None:
    global _active
    with _install_lock:
        if _active is not None and _active is not context:
            raise ResilienceError("a ChaosContext is already installed")
        _active = context


def uninstall_chaos(context: ChaosContext | None = None) -> None:
    """Remove the active context (a specific one, or whatever is active)."""
    global _active
    with _install_lock:
        if context is None or _active is context:
            _active = None


def active_chaos() -> ChaosContext | None:
    return _active


@contextmanager
def no_chaos() -> Iterator[None]:
    """Temporarily mask the installed context (recovery paths use this
    so a repair action cannot itself be re-injected forever)."""
    global _active
    with _install_lock:
        saved, _active = _active, None
    try:
        yield
    finally:
        with _install_lock:
            _active = saved


def fault_point(site: str, key: object = None) -> str | None:
    """The hook every registered site calls once per invocation.

    Returns ``None`` on the clean path. With an installed context the
    site's decision is applied here for ``"raise"`` (raises
    :class:`InjectedFault`) and ``"sleep"`` (sleeps, then returns
    ``"sleep"``); ``"corrupt"`` is returned to the caller, which owns
    the bytes being corrupted.
    """
    chaos = _active
    if chaos is None:
        return None
    spec = chaos.decide(site, key)
    if spec is None:
        return None
    registry = get_registry()
    registry.inc("resilience.faults_injected")
    registry.inc(f"resilience.faults_injected.{spec.mode}")
    if spec.mode == "raise":
        raise InjectedFault(site, key, chaos.invocations(site))
    if spec.mode == "sleep":
        time.sleep(spec.sleep_seconds)
        return "sleep"
    return "corrupt"
