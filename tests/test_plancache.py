"""Unit tests for the plan cache."""

import numpy as np
import pytest

from repro.compiler import PlanCache, compile_expr
from repro.errors import CompilerError
from repro.lang import matrix, sumall
from repro.obs import get_registry
from repro.runtime import execute


@pytest.fixture
def cache():
    return PlanCache(capacity=4)


def _gradient(n=100, d=10):
    X = matrix("X", (n, d))
    w = matrix("w", (d, 1))
    y = matrix("y", (n, 1))
    return X.T @ (X @ w) - X.T @ y


class TestPlanCache:
    def test_second_compile_is_a_hit(self, cache):
        a = cache.get_or_compile(_gradient())
        b = cache.get_or_compile(_gradient())
        assert a is b
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_different_shapes_are_different_entries(self, cache):
        cache.get_or_compile(_gradient(100, 10))
        cache.get_or_compile(_gradient(200, 10))
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_flags_part_of_key(self, cache):
        optimized = cache.get_or_compile(_gradient())
        raw = cache.get_or_compile(_gradient(), fusion=False)
        assert optimized is not raw
        assert cache.stats.misses == 2

    def test_lru_eviction(self, cache):
        for d in range(5):  # capacity is 4
            cache.get_or_compile(_gradient(50, d + 1))
        assert len(cache) == 4
        assert cache.stats.evictions == 1
        # The first entry (d=1) was evicted; recompiling misses.
        cache.get_or_compile(_gradient(50, 1))
        assert cache.stats.misses == 6

    def test_capacity_validation(self):
        with pytest.raises(CompilerError, match="capacity"):
            PlanCache(capacity=0)

    def test_clear(self, cache):
        cache.get_or_compile(_gradient())
        cache.clear()
        assert len(cache) == 0

    def test_cached_plan_executes_correctly(self, cache, rng):
        plan = cache.get_or_compile(_gradient(20, 5))
        plan_again = cache.get_or_compile(_gradient(20, 5))
        bindings = {
            "X": rng.standard_normal((20, 5)),
            "w": rng.standard_normal(5),
            "y": rng.standard_normal(20),
        }
        out = execute(plan_again, bindings)
        ref = execute(compile_expr(_gradient(20, 5)), bindings)
        assert np.allclose(out, ref)

    def test_hit_ratio(self, cache):
        expr = sumall(matrix("X", (5, 5)))
        for _ in range(10):
            cache.get_or_compile(expr)
        assert cache.stats.hit_ratio == pytest.approx(0.9)

    def test_stats_dual_written_to_metrics_registry(self, cache):
        """plancache.* counters mirror the per-instance CacheStats."""
        for d in range(5):  # capacity 4 -> one eviction
            cache.get_or_compile(_gradient(50, d + 1))
        cache.get_or_compile(_gradient(50, 5))  # hit
        registry = get_registry()
        assert registry.value("plancache.hits") == cache.stats.hits == 1
        assert registry.value("plancache.misses") == cache.stats.misses == 5
        assert (
            registry.value("plancache.evictions")
            == cache.stats.evictions
            == 1
        )

    def test_iterative_driver_pattern(self, cache, rng):
        """A GD loop through the cache compiles exactly once."""
        n, d = 50, 4
        Xv = rng.standard_normal((n, d))
        yv = Xv @ np.ones(d)
        wv = np.zeros(d)
        for _ in range(25):
            plan = cache.get_or_compile(_gradient(n, d))
            g = execute(plan, {"X": Xv, "w": wv, "y": yv})
            wv -= 0.01 * g[:, 0] / n
        assert cache.stats.misses == 1
        assert cache.stats.hits == 24
