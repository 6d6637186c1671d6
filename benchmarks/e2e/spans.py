"""Span recorder for the traced run of the whole-loop benchmark.

Spans come from the benchmark's own code only: the harness opens one
around each of its steps, and :meth:`Tracer.wrap` shadows a public
method *on one live instance* with a timing closure (the class, and
every other instance, stays untouched; :meth:`Tracer.remove` deletes
the shadow). Nothing in ``src/`` is edited or imported differently.

Accounting is a stack of open frames. When a frame closes, its duration
is added to its parent's child time, and ``duration - child time`` is
added to the frame's own key — so every nanosecond of the timed region
lands in exactly one key, and the harness's own share is the remainder
``wall - sum(keys)``.

Per-request boundaries (``cache.get``, ``quotas.admit``, ...) fire
millions of times, so they only aggregate into ``(calls, self_ns)``
totals; :meth:`end_unit` turns the totals' movement into one record per
recorded window of client calls, which keeps memory bounded. Coarse
boundaries (a mutation, a drain, a refresh, a promote) additionally
keep a span tuple ``(name, start, end, parent, unit)``. Everything
stays in memory until :meth:`write_jsonl`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Tracer:
    """Self-time accounting over wrapped instance methods.

    Args:
        record_every: client units per unit record (1 = one record per
            unit; the single-row workload groups 64 so a record always
            covers 64 requests).
    """

    def __init__(self, record_every: int = 1):
        self.totals: dict[str, list[int]] = {}  # key -> [calls, self_ns]
        self.spans: list[tuple] = []
        self.unit_records: list[dict] = []
        self.unit = -1  # id of the client unit in flight
        self.record_every = max(1, record_every)
        self._stack: list[list] = []  # open frames: [key, child_ns]
        self._installed: list[tuple[object, str]] = []
        self._recorded: dict[str, tuple[int, int]] = {}
        self._window_start: int | None = None
        self._window_units = 0

    # -- instrumentation -----------------------------------------------
    def wrap(self, obj, attr: str, key: str, coarse: bool = False) -> None:
        """Shadow ``obj.attr`` with a timing closure charged to ``key``."""
        fn = getattr(obj, attr)
        total = self.totals.setdefault(key, [0, 0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            frame = [key, 0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                total[0] += 1
                total[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if coarse:
                    parent = stack[-1][0] if stack else "harness"
                    spans.append((key, start, end, parent, self.unit))

        setattr(obj, attr, traced)
        self._installed.append((obj, attr))

    @contextmanager
    def span(self, key: str):
        """A coarse span around a block of the harness's own code."""
        total = self.totals.setdefault(key, [0, 0])
        frame = [key, 0]
        self._stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            duration = end - start
            total[0] += 1
            total[1] += duration - frame[1]
            parent = "harness"
            if self._stack:
                self._stack[-1][1] += duration
                parent = self._stack[-1][0]
            self.spans.append((key, start, end, parent, self.unit))

    def absorb(self, key: str, calls: int, busy_ns: int) -> None:
        """Charge time measured elsewhere (``repro.obs`` spans) to
        ``key`` and take it out of the open frame's self time."""
        total = self.totals.setdefault(key, [0, 0])
        total[0] += calls
        total[1] += busy_ns
        if self._stack:
            self._stack[-1][1] += busy_ns

    def remove(self) -> None:
        """Delete every shadow :meth:`wrap` installed."""
        for obj, attr in self._installed:
            delattr(obj, attr)
        self._installed.clear()

    def installed(self) -> list[tuple[object, str]]:
        return list(self._installed)

    # -- per-unit records ----------------------------------------------
    def begin_unit(self, unit: int) -> None:
        self.unit = unit
        if self._window_start is None:
            self._window_start = _clock()

    def end_unit(self) -> None:
        """Close the unit in flight; every ``record_every`` units, emit
        one record of how far each key's totals moved."""
        self._window_units += 1
        if self._window_units >= self.record_every:
            self._emit_record()

    def _emit_record(self) -> None:
        layers = {}
        for key, (calls, self_ns) in self.totals.items():
            seen_calls, seen_ns = self._recorded.get(key, (0, 0))
            if calls != seen_calls:
                layers[key] = [calls - seen_calls, self_ns - seen_ns]
                self._recorded[key] = (calls, self_ns)
        self.unit_records.append({
            "unit": self.unit,
            "units": self._window_units,
            "start_ns": self._window_start,
            "end_ns": _clock(),
            "layers": layers,
        })
        self._window_start = None
        self._window_units = 0

    # -- results -------------------------------------------------------
    def calls(self, *keys: str) -> int:
        return sum(self.totals.get(k, (0, 0))[0] for k in keys)

    def total_ms(self) -> float:
        return sum(t[1] for t in self.totals.values()) / 1e6

    def write_jsonl(self, path) -> None:
        if self._window_units:
            self._emit_record()  # the last, partial window
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({
                    "type": "span", "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "unit": unit,
                }) + "\n")
            for record in self.unit_records:
                fh.write(json.dumps({"type": "unit", **record}) + "\n")
