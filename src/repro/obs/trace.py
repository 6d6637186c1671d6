"""Nested timed spans, gated by ``REPRO_TRACE``.

``with span("executor.matmul", rows=n):`` opens a timed span; spans nest
through a thread-local stack, so the executor's per-operator spans hang
off the surrounding ``execute`` span, which hangs off the experiment
span — a tree the JSON report serializes. A span that exits through an
exception records ``status="error"`` (and the exception repr) before
re-raising, so traces of failed runs still close cleanly.

Tracing defaults to **off** and costs one function call plus a flag test
when off (the E20 microbenchmark bounds this below 3% of an E19 quick
run). Enable with the ``REPRO_TRACE=1`` environment variable or
:func:`set_tracing`; ``set_tracing(None)`` re-reads the environment.

Spans opened on worker threads (the parallel engine's pool) have no
parent on their own stack and are recorded as additional roots, tagged
with the thread name — cross-thread parenting is deliberately not
attempted. Finished root spans are kept up to a bounded count; overflow
increments a drop counter rather than growing without bound.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

#: root spans retained per process between resets; extras are dropped.
MAX_ROOT_SPANS = 1024

_TRUTHY = ("1", "true", "yes", "on")


def _env_tracing() -> bool:
    return os.environ.get("REPRO_TRACE", "").strip().lower() in _TRUTHY


_enabled: bool = _env_tracing()
_state_lock = threading.Lock()
_roots: list["Span"] = []
_dropped_spans = 0
_local = threading.local()


def tracing_enabled() -> bool:
    return _enabled


def set_tracing(enabled: bool | None) -> None:
    """Force tracing on/off; ``None`` restores the ``REPRO_TRACE`` default."""
    global _enabled
    _enabled = _env_tracing() if enabled is None else bool(enabled)


class Span:
    """One timed, attributed node of the trace tree."""

    __slots__ = (
        "name", "attrs", "start", "end", "status", "error",
        "children", "thread",
    )

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self.children: list[Span] = []
        self.thread = threading.current_thread().name

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute on this span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if exc is not None:
            self.status = "error"
            self.error = repr(exc)
        stack = _stack()
        # Pop defensively: a mis-nested exit (manual __exit__ misuse)
        # must not corrupt the rest of the stack.
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            stack.remove(self)
        if stack:
            stack[-1].children.append(self)
        else:
            _record_root(self)
        return None  # never swallow the exception

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration,
            "status": self.status,
        }
        if self.attrs:
            out["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        if self.error is not None:
            out["error"] = self.error
        if self.thread != "MainThread":
            out["thread"] = self.thread
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _NoopSpan:
    """Shared do-nothing span for the disabled path (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        pass


_NOOP = _NoopSpan()


def _stack() -> list[Span]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _record_root(root: Span) -> None:
    global _dropped_spans
    with _state_lock:
        if len(_roots) < MAX_ROOT_SPANS:
            _roots.append(root)
        else:
            _dropped_spans += 1


def span(name: str, **attrs: Any):
    """Open a timed span (no-op unless tracing is enabled)."""
    if not _enabled:
        return _NOOP
    return Span(name, attrs)


def span_roots() -> list[Span]:
    """Snapshot of finished root spans (insertion order)."""
    with _state_lock:
        return list(_roots)


def dropped_span_count() -> int:
    with _state_lock:
        return _dropped_spans


def reset_trace() -> None:
    """Clear recorded spans and this thread's stack (not the enable flag)."""
    global _dropped_spans
    with _state_lock:
        _roots.clear()
        _dropped_spans = 0
    if getattr(_local, "stack", None):
        _local.stack = []
