"""JSON run-report exporter: span trees + metrics in one document.

The report is the machine-readable contract CI gates on
(``benchmarks/check_regression.py``) and the artifact
``run_experiments.py --report`` uploads per experiment. Schema::

    {
      "schema": "repro.obs/v1",
      "tracing": bool,            # was REPRO_TRACE / set_tracing on?
      "spans": [ <span tree>* ],  # empty when tracing is off
      "dropped_spans": int,
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
    }

Each span tree node: ``{"name", "duration_s", "status", "attrs"?,
"error"?, "thread"?, "children"?}``.
"""

from __future__ import annotations

from typing import Any

from .metrics import get_registry, reset_metrics
from .trace import dropped_span_count, reset_trace, span_roots, tracing_enabled

SCHEMA = "repro.obs/v1"


def report() -> dict[str, Any]:
    """Serialize the current spans + metrics (JSON-safe, no side effects)."""
    return {
        "schema": SCHEMA,
        "tracing": tracing_enabled(),
        "spans": [root.as_dict() for root in span_roots()],
        "dropped_spans": dropped_span_count(),
        "metrics": get_registry().as_dict(),
    }


def reset() -> None:
    """Clear spans and metrics (the between-runs / between-tests hook)."""
    reset_trace()
    reset_metrics()
