"""Observability layer: spans, metrics registry, JSON report.

Covers the contracts the instrumented layers rely on: nested span trees,
exception safety, the disabled path being a true no-op, typed metrics
with conflict detection, thread safety, reset isolation, and the report
schema CI's regression gate consumes. The autouse ``_reset_observability``
fixture in conftest.py guarantees each test starts from a clean registry
and tracer.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.errors import ReproError


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_a_tree(self):
        obs.set_tracing(True)
        with obs.span("outer", depth=0):
            with obs.span("inner-a"):
                pass
            with obs.span("inner-b"):
                with obs.span("leaf"):
                    pass
        roots = obs.span_roots()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert outer.attrs == {"depth": 0}

    def test_span_records_duration_and_status(self):
        obs.set_tracing(True)
        with obs.span("timed") as s:
            pass
        assert s.status == "ok"
        assert s.duration >= 0.0

    def test_exception_marks_error_and_propagates(self):
        obs.set_tracing(True)
        with pytest.raises(ValueError, match="boom"):
            with obs.span("outer"):
                with obs.span("failing"):
                    raise ValueError("boom")
        (outer,) = obs.span_roots()
        failing = outer.children[0]
        assert failing.status == "error"
        assert "boom" in failing.error
        # the parent also unwound through __exit__ with the exception
        assert outer.status == "error"
        # the stack fully unwound: a new span starts a fresh root
        with obs.span("after"):
            pass
        assert [r.name for r in obs.span_roots()] == ["outer", "after"]

    def test_disabled_mode_is_a_noop(self):
        obs.set_tracing(False)
        with obs.span("invisible", big=1) as s:
            s.set("ignored", 1)
        assert obs.span_roots() == []
        # every disabled span is the same shared object: zero allocation
        assert obs.span("a") is obs.span("b")

    def test_root_span_cap_drops_beyond_max(self):
        obs.set_tracing(True)
        for i in range(obs.MAX_ROOT_SPANS + 7):
            with obs.span(f"r{i}"):
                pass
        assert len(obs.span_roots()) == obs.MAX_ROOT_SPANS
        assert obs.dropped_span_count() == 7

    def test_as_dict_shape(self):
        obs.set_tracing(True)
        with obs.span("parent", n=3):
            with obs.span("child"):
                pass
        doc = obs.span_roots()[0].as_dict()
        assert doc["name"] == "parent"
        assert doc["attrs"] == {"n": 3}
        assert doc["duration_s"] >= 0.0
        assert [c["name"] for c in doc["children"]] == ["child"]
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_worker_thread_spans_become_separate_roots(self):
        obs.set_tracing(True)

        def work():
            with obs.span("in-worker"):
                pass

        with obs.span("main-root"):
            t = threading.Thread(target=work, name="obs-worker")
            t.start()
            t.join()
        names = {r.name for r in obs.span_roots()}
        assert names == {"main-root", "in-worker"}
        worker_root = next(r for r in obs.span_roots() if r.name == "in-worker")
        assert worker_root.thread == "obs-worker"
        # no cross-thread parenting
        assert obs.span_roots()[0].children == [] or all(
            c.name != "in-worker" for c in obs.span_roots()[0].children
        )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_and_counts_updates(self):
        c = obs.get_registry().counter("t.counter")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.updates == 2
        assert obs.get_registry().value("t.counter") == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ReproError):
            obs.get_registry().counter("t.mono").inc(-1)

    def test_gauge_last_write_wins(self):
        obs.get_registry().set_gauge("t.gauge", 1.0)
        obs.get_registry().set_gauge("t.gauge", 7.0)
        assert obs.get_registry().value("t.gauge") == 7.0
        assert obs.get_registry().gauge("t.gauge").updates == 2

    def test_histogram_summary_stats(self):
        for v in (1.0, 2.0, 9.0):
            obs.get_registry().observe("t.hist", v)
        h = obs.get_registry().histogram("t.hist")
        assert h.count == 3
        assert h.min == 1.0 and h.max == 9.0
        assert h.mean == pytest.approx(4.0)

    def test_type_conflict_raises(self):
        obs.get_registry().inc("t.kind")
        with pytest.raises(ReproError, match="t.kind"):
            obs.get_registry().observe("t.kind", 1.0)

    def test_reset_clears_everything(self):
        obs.get_registry().inc("t.reset")
        obs.get_registry().set_gauge("t.reset.g", 5.0)
        obs.get_registry().reset()
        assert obs.get_registry().names() == []
        assert obs.get_registry().value("t.reset", default=-1.0) == -1.0

    def test_value_reads_without_creating(self):
        assert obs.get_registry().value("t.never", default=0.5) == 0.5
        assert "t.never" not in obs.get_registry().names()

    def test_concurrent_increments_are_lossless(self):
        registry = obs.get_registry()
        n_threads, per_thread = 8, 500

        def hammer():
            for _ in range(per_thread):
                registry.inc("t.race")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("t.race") == n_threads * per_thread

    def test_as_dict_groups_by_type(self):
        obs.get_registry().inc("t.c")
        obs.get_registry().set_gauge("t.g", 2.0)
        obs.get_registry().observe("t.h", 3.0)
        doc = obs.get_registry().as_dict()
        assert "t.c" in doc["counters"]
        assert "t.g" in doc["gauges"]
        assert "t.h" in doc["histograms"]
        json.dumps(doc)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
class TestReport:
    def test_schema_and_sections(self):
        obs.set_tracing(True)
        with obs.span("reported"):
            obs.get_registry().inc("t.report.counter")
        doc = obs.report()
        assert doc["schema"] == obs.SCHEMA
        assert doc["tracing"] is True
        assert doc["dropped_spans"] == 0
        assert [s["name"] for s in doc["spans"]] == ["reported"]
        assert doc["metrics"]["counters"]["t.report.counter"]["value"] == 1.0
        json.dumps(doc)

    def test_reset_clears_spans_and_metrics(self):
        obs.set_tracing(True)
        with obs.span("gone"):
            obs.get_registry().inc("t.gone")
        obs.reset()
        doc = obs.report()
        assert doc["spans"] == []
        assert doc["metrics"]["counters"] == {}


# ----------------------------------------------------------------------
# Instrumented layers publish into the registry
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_executor_publishes_metrics_and_spans(self):
        from repro.lang import matrix
        from repro.runtime import execute

        obs.set_tracing(True)
        A = matrix("A", (3, 4))
        B = matrix("B", (4, 2))
        execute(A @ B, {"A": np.arange(12.0).reshape(3, 4),
                        "B": np.arange(8.0).reshape(4, 2)})
        assert obs.get_registry().value("executor.executions") == 1.0
        assert obs.get_registry().value("executor.ops") >= 1.0
        roots = [r for r in obs.span_roots() if r.name == "executor.execute"]
        assert len(roots) == 1
        assert any(c.name == "executor.op" for c in roots[0].children)

    def test_bufferpool_publishes_hits_and_misses(self):
        from repro.runtime.bufferpool import BlockStore, BufferPool

        store = BlockStore()
        store.write("b0", np.ones((4, 4)))
        pool = BufferPool(store, capacity_bytes=1 << 20)
        pool.get("b0")
        pool.get("b0")
        assert obs.get_registry().value("bufferpool.misses") == 1.0
        assert obs.get_registry().value("bufferpool.hits") == 1.0
        assert obs.get_registry().value("blockstore.writes") == 1.0

    def test_parallel_pmap_records_dispatch(self):
        from repro.runtime.parallel import ParallelContext

        ctx = ParallelContext(max_workers=2)
        out = ctx.pmap(lambda x: x + 1, [1, 2, 3], cost_hint=0.0, site="t.site")
        assert out == [2, 3, 4]
        assert obs.get_registry().value("parallel.calls") == 1.0
        assert obs.get_registry().value("parallel.sites.t.site.calls") == 1.0
