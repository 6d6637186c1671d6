"""Unified observability: tracing + metrics across every runtime layer.

The surveyed systems drive their optimizers from runtime statistics —
SystemML re-compiles on observed sparsity, Bismarck balances partitions
on observed timings, selection managers budget on observed costs. This
package is the one substrate those statistics flow through here:

* :func:`span` — nested timed spans (``with span("executor.matmul",
  rows=n):``), gated by ``REPRO_TRACE`` / :func:`set_tracing`; off by
  default and nearly free when off.
* :func:`get_registry` — typed metrics (counters, gauges, histograms)
  in the process-global, thread-safe, resettable :class:`MetricsRegistry`.
* :func:`report` — one JSON-safe document holding the span trees and
  every metric; what ``run_experiments.py --report`` writes.
* :func:`reset` — clear spans + metrics (tests do this between cases).

* :class:`Ledger` — the count ledger every cache, store, server and
  maintainer keeps: ``ledger.inc("hits")`` is the one statement that
  counts an event, one add in the calling thread's cell of the instance
  (exact per-run numbers for gates), which the registry pulls as
  ``<prefix>.hits`` (summed over instances for the exporter).

Instrumented layers: DSL executor, parallel engine, buffer pool /
block store, UDA driver, compression planner, simulated cluster, and
grid/random search. ``ExecutionStats`` (dict-valued per-run tallies)
is not a count ledger; each execution adds its totals to the
executor's own ledger.
"""

from .metrics import (
    RESERVOIR_SIZE,
    Counted,
    Counter,
    Gauge,
    Histogram,
    Ledger,
    MetricsRegistry,
    get_registry,
    reset_metrics,
)
from .report import SCHEMA, report, reset
from .trace import (
    MAX_ROOT_SPANS,
    Span,
    dropped_span_count,
    reset_trace,
    set_tracing,
    span,
    span_roots,
    tracing_enabled,
)


__all__ = [
    "MAX_ROOT_SPANS",
    "RESERVOIR_SIZE",
    "SCHEMA",
    "Counted",
    "Counter",
    "Gauge",
    "Histogram",
    "Ledger",
    "MetricsRegistry",
    "Span",
    "dropped_span_count",
    "get_registry",
    "report",
    "reset",
    "reset_metrics",
    "reset_trace",
    "set_tracing",
    "span",
    "span_roots",
    "tracing_enabled",
]
