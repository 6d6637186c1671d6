"""Adaptive re-optimization: the observed-cost feedback store.

SystemML's signature runtime trick is *dynamic recompilation*: when the
sizes, sparsity, or costs observed while running diverge from what the
compiler assumed, the plan is corrected mid-flight instead of trusted to
the end. This module is that loop's memory. A :class:`FeedbackStore`
aggregates what the runtime actually measured — realized densities and
compression ratios per input, densify-fallback outcomes per
representation kind, and per-site pmap speedups — and the planners read
it back:

* :func:`repro.compiler.reprplan.plan_representations` blends observed
  density/ratio evidence with its sampled estimates and demotes a
  representation that keeps densifying;
* :class:`repro.runtime.parallel.ParallelContext` consults
  :meth:`FeedbackStore.site_policy` so a call site whose measured
  speedup is below 1 stops fanning out and a winning site earns a lower
  threshold;
* the iterative drivers (``glm.logreg_gd``, ``kmeans_dsl``) re-plan
  between epochs when the store disagrees with the current plan.

Evidence is an exponential moving average with a confidence weight
``count / (count + CONFIDENCE_HALFWAY)``: cold sections blend to the
pure compile-time estimate, and confidence saturates as observations
accumulate. A store lives in memory for the run that learns from it.

The store is **off by default** and has one way in:
``with feedback_scope(store)``. Outside a scope :func:`active_store`
returns ``None``, so the disabled hot path costs one function call and
one module-attribute read (E23 bounds it below 3%).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from ..errors import ReproError
from ..obs import get_registry
from ..operand import evidence_of

#: weight of the newest observation in every moving average.
EMA_DECAY = 0.3
#: observation count at which blended confidence reaches 0.5.
CONFIDENCE_HALFWAY = 2.0
#: fallbacks per observed execution (of a kind) that demote the kind.
DEMOTION_FALLBACK_RATE = 0.5
#: paired serial/parallel observations needed before a site policy fires.
MIN_SITE_OBSERVATIONS = 1
#: measured speedup below this turns a site serial.
SITE_LOSS_SPEEDUP = 1.0
#: measured speedup above this lowers the site's cost threshold.
SITE_WIN_SPEEDUP = 1.2


class FeedbackError(ReproError):
    """An ``adaptive=`` argument is not a feedback store."""


# ----------------------------------------------------------------------
# EMA + confidence primitives (stored as plain dicts)
# ----------------------------------------------------------------------
def _ema_update(stat: dict, value: float) -> None:
    count = stat.get("count", 0)
    if count == 0:
        stat["ema"] = float(value)
    else:
        stat["ema"] = EMA_DECAY * float(value) + (1.0 - EMA_DECAY) * stat["ema"]
    stat["count"] = count + 1
    stat["last"] = float(value)


def _confidence(count: int) -> float:
    return count / (count + CONFIDENCE_HALFWAY)


@dataclass(frozen=True)
class BlendedEstimate:
    """One quantity after mixing compile-time and observed evidence."""

    value: float
    estimated: float
    observed: float | None
    confidence: float
    source: str  # "estimated" (cold) or "observed" (evidence blended in)

    def describe(self, label: str) -> str:
        if self.source == "estimated":
            return f"{label} est {self.estimated:.3g}"
        return (
            f"{label} {self.value:.3g} "
            f"(est {self.estimated:.3g}, obs {self.observed:.3g}, "
            f"conf {self.confidence:.2f})"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "estimated": self.estimated,
            "observed": self.observed,
            "confidence": self.confidence,
            "source": self.source,
        }


def _blend(stat: dict | None, estimated: float) -> BlendedEstimate:
    if not stat or stat.get("count", 0) == 0:
        return BlendedEstimate(
            float(estimated), float(estimated), None, 0.0, "estimated"
        )
    conf = _confidence(stat["count"])
    value = conf * stat["ema"] + (1.0 - conf) * float(estimated)
    return BlendedEstimate(
        value, float(estimated), stat["ema"], conf, "observed"
    )


@dataclass(frozen=True)
class SitePolicy:
    """A learned dispatch decision for one pmap call site."""

    site: str
    speedup: float
    observations: int
    confidence: float
    #: "serial" — stop fanning out; "boost" — divide the static cost
    #: threshold by ``speedup``; anything in between yields no policy.
    action: str


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class FeedbackStore:
    """Thread-safe memory of what the runtime measured.

    Sections (keyed by strings):

    ``inputs``
        ``"name@RxC"`` -> per-kind execution/fallback counts plus
        density and CLA-ratio moving averages.
    ``sites``
        pmap site -> dispatch counts plus per-task wall moving averages
        for the serial and parallel paths (their ratio is the realized
        speedup) and the work/wall ratio as a fallback signal.
    """

    def __init__(self):
        self.updates = 0
        self._lock = threading.Lock()
        self._inputs: dict[str, dict] = {}
        self._sites: dict[str, dict] = {}

    # -- observers ------------------------------------------------------
    def observe_input(
        self,
        key: str,
        kind: str,
        density: float | None = None,
        cla_ratio: float | None = None,
        fallbacks: int = 0,
    ) -> None:
        """Record one execution's realized view of a bound input."""
        with self._lock:
            entry = self._inputs.setdefault(
                key,
                {"executions": {}, "fallbacks": {}, "density": {},
                 "cla_ratio": {}},
            )
            entry["executions"][kind] = entry["executions"].get(kind, 0) + 1
            if fallbacks:
                entry["fallbacks"][kind] = (
                    entry["fallbacks"].get(kind, 0) + fallbacks
                )
            if density is not None:
                _ema_update(entry["density"], density)
            if cla_ratio is not None:
                _ema_update(entry["cla_ratio"], cla_ratio)
            self.updates += 1

    def observe_site(
        self, site: str, tasks: int, parallel: bool, wall: float, work: float
    ) -> None:
        """Record one pmap dispatch outcome (called by ``_record``)."""
        if tasks <= 0:
            return
        per_task = wall / tasks
        with self._lock:
            entry = self._sites.setdefault(
                site,
                {"parallel_calls": 0, "serial_calls": 0,
                 "parallel_per_task": {}, "serial_per_task": {},
                 "work_speedup": {}},
            )
            if parallel:
                entry["parallel_calls"] += 1
                _ema_update(entry["parallel_per_task"], per_task)
                if wall > 0:
                    _ema_update(entry["work_speedup"], work / wall)
            else:
                entry["serial_calls"] += 1
                _ema_update(entry["serial_per_task"], per_task)
            self.updates += 1

    def observe_execution(self, bindings: dict, stats) -> None:
        """Digest one ``execute()`` call: each input's evidence, fallbacks.

        ``bindings`` are the executor's prepared operands; ``stats`` is
        its :class:`~repro.runtime.executor.ExecutionStats`. Each
        operand reports its own evidence (:func:`repro.operand
        .evidence_of`). Fallbacks are attributed per representation
        *kind* (the stats tally them by kind), so every input bound in
        a kind that densified this run accumulates demotion evidence.
        """
        fallback_kinds = getattr(stats, "fallback_kinds", {})
        for name, value in bindings.items():
            shape = getattr(value, "shape", None)
            if not shape or len(shape) != 2:
                continue
            kind, channel, measured = evidence_of(value)
            self.observe_input(
                input_key(name, shape),
                kind,
                fallbacks=int(fallback_kinds.get(kind, 0)),
                **{channel: measured},
            )
        get_registry().inc("feedback.updates")

    # -- consumers ------------------------------------------------------
    def blended(
        self, key: str, channel: str, estimated: float
    ) -> BlendedEstimate:
        """One evidence channel of one input (``"density"`` or
        ``"cla_ratio"``) mixed with its compile-time estimate."""
        with self._lock:
            return _blend(self._inputs.get(key, {}).get(channel), estimated)

    def demoted_kinds(self, key: str) -> dict[str, int]:
        """Kinds whose observed densify-fallback rate disqualifies them."""
        with self._lock:
            entry = self._inputs.get(key)
            if entry is None:
                return {}
            out = {}
            for kind, count in entry.get("fallbacks", {}).items():
                runs = entry.get("executions", {}).get(kind, 0)
                if runs > 0 and count >= DEMOTION_FALLBACK_RATE * runs:
                    out[kind] = count
            return out

    def site_policy(self, site: str) -> SitePolicy | None:
        """The learned dispatch decision for one site, if any.

        Prefers the *paired* signal — serial vs parallel per-task wall —
        which stays honest for GIL-bound thread work where summed task
        time over wall would overcount. Falls back to the work/wall
        ratio when the site has never run serially.
        """
        with self._lock:
            entry = self._sites.get(site)
            if entry is None:
                return None
            par = entry.get("parallel_per_task", {})
            ser = entry.get("serial_per_task", {})
            if (
                par.get("count", 0) >= MIN_SITE_OBSERVATIONS
                and ser.get("count", 0) >= MIN_SITE_OBSERVATIONS
            ):
                count = min(par["count"], ser["count"])
                speedup = ser["ema"] / max(par["ema"], 1e-12)
            else:
                work = entry.get("work_speedup", {})
                if work.get("count", 0) < MIN_SITE_OBSERVATIONS:
                    return None
                count = work["count"]
                speedup = work["ema"]
        if speedup < SITE_LOSS_SPEEDUP:
            action = "serial"
        elif speedup >= SITE_WIN_SPEEDUP:
            action = "boost"
        else:
            return None
        return SitePolicy(
            site=site,
            speedup=speedup,
            observations=count,
            confidence=_confidence(count),
            action=action,
        )


def input_key(name: str, shape) -> str:
    """The store key for one bound input: ``name@RxC``."""
    return f"{name}@{shape[0]}x{shape[1]}"


# ----------------------------------------------------------------------
# The active store: whatever the innermost scope installed
# ----------------------------------------------------------------------
_global_lock = threading.Lock()
_active_store: FeedbackStore | None = None


def active_store() -> FeedbackStore | None:
    """The store consumers/observers should use, or ``None`` outside any
    :func:`feedback_scope` — the hot-path gate, one module-attribute read."""
    return _active_store


@contextmanager
def feedback_scope(store: FeedbackStore | None):
    """Install ``store`` as the active store for the duration of the block.

    This is the only way in: the executor's and the parallel engine's
    observations, and every planner read, go to the innermost scope's
    store, and the previous one is restored on exit. ``None`` is a no-op
    scope, so drivers can thread an optional store without branching.
    """
    if store is None:
        yield None
        return
    global _active_store
    with _global_lock:
        previous = _active_store
        _active_store = store
    try:
        yield store
    finally:
        with _global_lock:
            _active_store = previous


def resolve_store(adaptive) -> FeedbackStore | None:
    """Normalize a driver's ``adaptive=`` argument.

    ``None`` -> the active store (``None`` outside a scope); ``False``
    -> never adapt; a :class:`FeedbackStore` -> itself.
    """
    if adaptive is None:
        return _active_store
    if adaptive is False:
        return None
    if isinstance(adaptive, FeedbackStore):
        return adaptive
    raise FeedbackError(
        f"adaptive must be None, False, or a FeedbackStore, "
        f"got {type(adaptive).__name__}"
    )
