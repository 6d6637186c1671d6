"""Typed metrics in a process-global, thread-safe, resettable registry.

Every runtime layer (executor, parallel engine, buffer pool, UDA driver,
compression planner, simulated cluster, model selection) publishes into
one :class:`MetricsRegistry` instead of keeping only private counters —
the substrate the surveyed systems' optimizers assume: SystemML's
compiler reads runtime statistics to re-optimize, Bismarck's scheduler
reads partition timings, model-selection managers read per-config costs.

Three metric types:

* :class:`Counter` — monotonically increasing float (``inc``),
* :class:`Gauge` — last-write-wins float (``set``),
* :class:`Histogram` — streaming count/sum/min/max over observations.

A :class:`Ledger` groups counters that an object also needs exact
per-instance values of (a cache's hits, a server's requests): one
``ledger.inc("hits")`` statement counts the event on the instance and
on the global counter ``<prefix>.hits``, so no event is stated twice.

All updates are cheap (one small lock per metric) and always on; the
expensive part of observability — span trees — lives in
:mod:`repro.obs.trace` behind the ``REPRO_TRACE`` gate. Each metric also
counts its *updates* so the overhead microbenchmark (E20) can bound the
total instrumentation cost of a run from first principles.
"""

from __future__ import annotations

import math
import threading
from typing import Any

from ..errors import ReproError


class Counter:
    """Monotonic counter. ``inc`` with a negative amount is an error."""

    __slots__ = ("name", "value", "updates", "_lock")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.updates = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount
            self.updates += 1

    def as_dict(self) -> dict[str, Any]:
        return {"value": self.value, "updates": self.updates}


class Gauge:
    """Last-write-wins value (pool occupancy, sample fraction, ...)."""

    __slots__ = ("name", "value", "updates", "_lock")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.updates = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.updates += 1

    def as_dict(self) -> dict[str, Any]:
        return {"value": self.value, "updates": self.updates}


#: number of recent observations a histogram keeps for percentiles.
RESERVOIR_SIZE = 512


class Histogram:
    """Streaming summary: count, sum, min, max (mean derived), plus
    nearest-rank percentiles over a bounded window of the most recent
    :data:`RESERVOIR_SIZE` observations (a deterministic ring buffer —
    no sampling randomness, so two identical runs report identical
    p50/p95/p99)."""

    __slots__ = ("name", "count", "total", "min", "max", "updates",
                 "_samples", "_next_slot", "_lock")

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.updates = 0
        self._samples: list[float] = []
        self._next_slot = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._samples) < RESERVOIR_SIZE:
                self._samples.append(value)
            else:
                self._samples[self._next_slot] = value
                self._next_slot = (self._next_slot + 1) % RESERVOIR_SIZE
            self.updates += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the window."""
        if not 0.0 <= q <= 100.0:
            raise ReproError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(samples)))
        return samples[rank - 1]

    def as_dict(self) -> dict[str, Any]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": 0.0, "updates": self.updates}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "updates": self.updates,
        }


class MetricsRegistry:
    """Name -> metric map; creation is locked, updates lock per metric.

    Metric names are dot-separated (``"bufferpool.hits"``). Requesting an
    existing name with a different type raises — a name means one thing.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name)
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # Convenience one-shots (the call shape instrumentation sites use).
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge (0 observations -> default)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.mean
        return metric.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def total_updates(self) -> int:
        """Total metric updates since the last reset (E20's event count)."""
        return sum(m.updates for m in list(self._metrics.values()))

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """Serialize grouped by type, names sorted — the report schema."""
        out: dict[str, dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[metric.kind + "s"][name] = metric.as_dict()
        return out


# ----------------------------------------------------------------------
# Process-global registry
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _registry


def reset_metrics() -> None:
    _registry.reset()


# ----------------------------------------------------------------------
# Count ledgers
# ----------------------------------------------------------------------
class Ledger:
    """Integer counters ``prefix.field``, per instance and process-wide.

    Fields read as attributes (``stats.hits``), :meth:`as_dict`
    snapshots them in declaration order, and ``hit_ratio`` exists
    wherever both ``hits`` and ``misses`` do. Nothing but :meth:`inc`
    writes. The per-instance count stays because gates and oracles read
    exact per-instance numbers, while the registry sums over every
    instance of a prefix and is reset between runs.

    Args:
        prefix: metric-name prefix (``"bufferpool"``, ``"serving.cache"``).
        fields: the counter names; fixed for the ledger's lifetime.
    """

    __slots__ = ("_names", "_counts")

    def __init__(self, prefix: str, fields: tuple[str, ...]):
        self._names = {field: f"{prefix}.{field}" for field in fields}
        self._counts = dict.fromkeys(fields, 0)

    def inc(self, field: str, n: int = 1) -> None:
        """Count ``n`` events, here and on the global counter, under
        that counter's lock (the hot path of every served request, so
        the registry's by-name lookup is inlined, and the lock is taken
        by ``acquire``/``release``: a ``with`` block costs twice that)."""
        name = self._names[field]
        counter = _registry._metrics.get(name)
        if type(counter) is not Counter:
            counter = _registry.counter(name)
        lock = counter._lock
        lock.acquire()
        try:
            counter.value += n
            counter.updates += 1
            self._counts[field] += n
        finally:
            lock.release()

    def __getattr__(self, field: str) -> int:
        if not field.startswith("_"):
            try:
                return self._counts[field]
            except KeyError:
                pass
        raise AttributeError(f"ledger has no field {field!r}")

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)


class Counted:
    """Mixin for an object that keeps its :class:`Ledger` at
    ``self.counts``: each field also reads as the owner's own attribute
    (``endpoint.requests``, ``store.hits``)."""

    def __getattr__(self, name: str) -> int:
        try:
            return self.__dict__["counts"]._counts[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    def ledger(self) -> dict[str, int]:
        """The exact per-instance counts (the registry sums the same
        events over every instance of the prefix)."""
        return self.counts.as_dict()
