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
``ledger.inc("hits")`` statement counts the event in the calling
thread's cell of the ledger, with no lock, and the registry *pulls*
``<prefix>.hits`` by summing every live ledger's cells when it is read,
so no event is stated twice and none is written twice.

Updates are cheap and always on: a ledger count is one add on the
caller's thread, a named metric's update one small lock. The expensive
part of observability — span trees — lives in :mod:`repro.obs.trace`
behind the ``REPRO_TRACE`` gate. Each metric also counts its *updates*
so the overhead microbenchmark (E20) can bound the total
instrumentation cost of a run from first principles.
"""

from __future__ import annotations

import math
import threading
import weakref
from threading import get_ident
from typing import Any

from ..errors import ReproError


class _Scalar:
    """A named float and the number of times it was updated."""

    __slots__ = ("name", "value", "updates", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.updates = 0
        self._lock = threading.Lock()

    def as_dict(self) -> dict[str, Any]:
        return {"value": self.value, "updates": self.updates}


class Counter(_Scalar):
    """Monotonic counter. ``inc`` with a negative amount is an error."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount
            self.updates += 1


class Gauge(_Scalar):
    """Last-write-wins value (pool occupancy, sample fraction, ...)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.updates += 1


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

    The counters of every :class:`Ledger` with a prefix are *pulled*: a
    read sums the live ledgers' cells, adds what dead ledgers held when
    they were collected, and takes off what the counters read at the
    last :meth:`reset`. A collected ledger only appends to a list (the
    collector may run while this registry's lock is held, on the thread
    holding it); the next read folds that list.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()
        #: a weak reference to each live ledger -> (its names, its cells)
        self._ledgers: dict[weakref.ref, tuple[dict[str, str], dict]] = {}
        #: the references of collected ledgers, not yet folded
        self._dead: list[weakref.ref] = []
        #: name -> [count, updates] of the collected ledgers, less the
        #: totals :meth:`reset` took
        self._offset: dict[str, list] = {}

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

    # -- the pulled ledgers -----------------------------------------------
    def _adopt(self, ledger: "Ledger", names: dict[str, str]) -> None:
        ref = weakref.ref(ledger, self._dead.append)
        with self._lock:
            self._fold()
            self._ledgers[ref] = (names, ledger._cells)

    def _fold(self) -> None:
        """Move collected ledgers' counts into the offset (lock held)."""
        while self._dead:
            _add_cells(self._offset, *self._ledgers.pop(self._dead.pop()))

    def _sum(self, base: dict[str, list]) -> dict[str, list]:
        """``base`` plus every live ledger's cells, name -> [count,
        updates] (lock held)."""
        self._fold()
        totals = {name: list(slot) for name, slot in base.items()}
        for names, cells in list(self._ledgers.values()):
            _add_cells(totals, names, cells)
        return totals

    def _counters(self) -> dict[str, list]:
        """name -> [value, updates] of every counter: the named ones, and
        each ledger-backed one updated since the last reset."""
        with self._lock:
            totals = self._sum(self._offset)
        out = {name: [0.0 + n, u] for name, (n, u) in totals.items() if u}
        for name, metric in list(self._metrics.items()):
            if isinstance(metric, Counter):
                slot = out.setdefault(name, [0.0, 0])
                slot[0] += metric.value
                slot[1] += metric.updates
        return out

    # -- reads -------------------------------------------------------------
    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge (0 observations -> default)."""
        slot = self._counters().get(name)
        if slot is not None:
            return slot[0]
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.mean
        return metric.value

    def names(self) -> list[str]:
        return sorted(self._metrics.keys() | self._counters().keys())

    def total_updates(self) -> int:
        """Total metric updates since the last reset (E20's event count)."""
        return sum(
            m.updates for m in list(self._metrics.values())
            if not isinstance(m, Counter)
        ) + sum(slot[1] for slot in self._counters().values())

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._offset = {
                name: [-n, -u] for name, (n, u) in self._sum({}).items()
            }

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """Serialize grouped by type, names sorted — the report schema."""
        out: dict[str, dict[str, Any]] = {
            "counters": {
                name: {"value": value, "updates": updates}
                for name, (value, updates) in self._counters().items()
            },
            "gauges": {}, "histograms": {},
        }
        for name, metric in list(self._metrics.items()):
            if not isinstance(metric, Counter):
                out[metric.kind + "s"][name] = metric.as_dict()
        return {kind: dict(sorted(group.items())) for kind, group in out.items()}


def _add_cells(totals: dict[str, list], names: dict[str, str], cells: dict) -> None:
    """Add each cell's ``[count, updates]`` to ``totals`` by full name."""
    for cell in list(cells.values()):
        for field, (count, updates) in cell.items():
            slot = totals.setdefault(names[field], [0, 0])
            slot[0] += count
            slot[1] += updates


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
    (or a site adding to its :meth:`cell`) writes. Each thread counts
    into its own cell, keyed by ``threading.get_ident()``, so an inc
    takes no lock and writes one place; a read sums the cells. The
    registry pulls the same cells, summed over every instance of a
    prefix and taken from zero at each reset, while the instance keeps
    its exact count, which gates and oracles read.

    Args:
        prefix: metric-name prefix (``"bufferpool"``, ``"serving.cache"``);
            None keeps the counts private to the instance.
        fields: the counter names; fixed for the ledger's lifetime.
    """

    __slots__ = ("_fields", "_cells", "__weakref__")

    def __init__(self, prefix: str | None, fields: tuple[str, ...]):
        self._fields = tuple(fields)
        #: thread ident -> that thread's cell
        self._cells: dict[int, dict[str, list]] = {}
        if prefix is not None:
            _registry._adopt(self, {f: f"{prefix}.{f}" for f in fields})

    def cell(self) -> dict[str, list]:
        """The calling thread's cell: ``field -> [count, updates]``. A
        site that counts several fields finds it once and adds to each
        slot what :meth:`inc` would: ``n`` to the count, 1 to updates."""
        cell = self._cells.get(get_ident())
        if cell is None:
            cell = {field: [0, 0] for field in self._fields}
            self._cells[get_ident()] = cell
        return cell

    def inc(self, field: str, n: int = 1) -> None:
        """Count ``n`` events in this thread's cell (the hot path of every
        served request: one lookup and two adds, no lock)."""
        cell = self._cells.get(get_ident())
        if cell is None:
            cell = self.cell()
        slot = cell[field]
        slot[0] += n
        slot[1] += 1

    def _total(self, field: str) -> int:
        return sum(cell[field][0] for cell in list(self._cells.values()))

    def __getattr__(self, field: str) -> int:
        if not field.startswith("_") and field in self._fields:
            return self._total(field)
        raise AttributeError(f"ledger has no field {field!r}")

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        return {field: self._total(field) for field in self._fields}


class Counted:
    """Mixin for an object that keeps its :class:`Ledger` at
    ``self.counts``: each field also reads as the owner's own attribute
    (``endpoint.requests``, ``store.hits``)."""

    def __getattr__(self, name: str) -> int:
        counts = self.__dict__.get("counts")
        if counts is not None and name in counts._fields:
            return counts._total(name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def ledger(self) -> dict[str, int]:
        """The exact per-instance counts (the registry sums the same
        events over every instance of the prefix)."""
        return self.counts.as_dict()
