"""The bounded-cache core (:mod:`repro.cache`) and the ledger it counts on.

The state machine drives random get/put/pin/remove sequences
against a list-based oracle; the example tests below it are the buffer
pool's former object-entry tests, moved with the code they exercise.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cache import BoundedCache
from repro.errors import ReproError
from repro.materialize import Fingerprint, MaterializationStore
from repro.obs import Ledger, get_registry
from repro.runtime import BlockStore, BufferPool

KEYS = st.integers(0, 7)


def _cache(budget: int) -> BoundedCache:
    return BoundedCache(budget, Ledger("bufferpool", ("evictions",)))


class CacheVsListOracle(RuleBasedStateMachine):
    """``order`` is the oracle: [key, value, cost] rows, oldest first."""

    @initialize(budget=st.integers(1, 40))
    def start(self, budget):
        self.budget = budget
        self.cache = _cache(budget)
        self.order: list[list] = []
        self.pinned: set[int] = set()
        self.evicted = 0
        self.serial = 0

    def _row(self, key):
        return next((r for r in self.order if r[0] == key), None)

    def _forget(self, key):
        self.order = [r for r in self.order if r[0] != key]
        self.pinned.discard(key)

    @rule(key=KEYS, cost=st.integers(0, 50), pin=st.booleans())
    def put(self, key, cost, pin):
        self.serial += 1
        survivors = self.pinned - {key}
        self._forget(key)
        resident = cost <= self.budget
        while resident and sum(r[2] for r in self.order) + cost > self.budget:
            victim = next(
                (r[0] for r in self.order if r[0] not in self.pinned), None
            )
            if victim is None:
                resident = False  # everything left is pinned
            else:
                self._forget(victim)
                self.evicted += 1
        if resident:
            self.order.append([key, self.serial, cost])
            if pin:
                self.pinned.add(key)
        assert self.cache.put(key, self.serial, cost, pin=pin) is resident
        assert (key in self.cache) is resident
        assert survivors <= set(self.cache.keys())  # pins outlive pressure

    @rule(key=KEYS)
    def get(self, key):
        row = self._row(key)
        if row is None:
            assert self.cache.get(key) is None
        else:
            self.order.remove(row)
            self.order.append(row)
            assert self.cache.get(key) == row[1]

    @rule(key=KEYS)
    def pin(self, key):
        resident = self._row(key) is not None
        if resident:
            self.pinned.add(key)
        assert self.cache.pin(key) is resident

    @rule(key=KEYS)
    def remove(self, key):
        existed = self._row(key) is not None
        self._forget(key)
        assert self.cache.remove(key) is existed

    @precondition(lambda self: hasattr(self, "cache"))
    @invariant()
    def agrees_with_oracle(self):
        assert self.cache.keys() == [r[0] for r in self.order]
        assert self.cache.pinned() == self.pinned
        assert self.cache.used == sum(r[2] for r in self.order)
        assert self.cache.used <= self.budget
        assert len(self.cache) == len(self.order)
        assert self.cache.stats.evictions == self.evicted


TestCacheVsListOracle = CacheVsListOracle.TestCase
TestCacheVsListOracle.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)


class TestBoundedCacheEntries:
    """Sized object entries: what the materialization store's memory
    tier needs from the core."""

    def test_put_then_get_returns_the_object(self):
        cache = _cache(1000)
        arr = np.arange(10, dtype=np.float64)
        assert cache.put("o", arr, arr.nbytes) is True
        assert cache.get("o") is arr
        assert cache.used == 80

    def test_get_miss_is_none(self):
        assert _cache(1000).get("absent") is None

    def test_explicit_cost_used_for_accounting(self):
        cache = _cache(1000)
        cache.put("o", {"not": "an array"}, 300)
        assert cache.used == 300
        with pytest.raises(ReproError, match="cost must be >= 0"):
            cache.put("bad", object(), -1)

    def test_eviction_order_and_byte_ledger_exact(self):
        # Room for exactly two 80-byte entries.
        cache = _cache(160)
        a, b, c = (np.full(10, float(i)) for i in range(3))
        cache.put("a", a, 80)
        cache.put("b", b, 80)
        assert cache.used == 160
        cache.get("a")  # touch a: b becomes LRU
        cache.put("c", c, 80)  # must evict exactly b
        assert set(cache.keys()) == {"a", "c"}
        assert cache.get("b") is None
        assert cache.used == 160
        assert cache.stats.evictions == 1
        assert get_registry().value("bufferpool.evictions") == 1

    def test_pinned_entries_never_evicted_under_pressure(self):
        cache = _cache(240)
        pinned = np.full(10, 7.0)
        assert cache.put("keep", pinned, 80, pin=True) is True
        # Storm of unpinned entries far beyond capacity.
        for i in range(20):
            cache.put(f"u{i}", np.full(10, float(i)), 80)
        assert "keep" in cache.pinned()
        assert cache.get("keep") is pinned
        # Ledger stays exact: every resident entry accounted, within cap.
        assert cache.used == 80 * len(cache)
        assert cache.used <= 240

    def test_pinned_working_set_beyond_capacity_serves_uncached(self):
        cache = _cache(100)
        assert cache.put("p0", np.full(10, 0.0), 80, pin=True) is True
        # Second pinned entry cannot fit: nothing evictable remains.
        assert cache.put("p1", np.full(10, 1.0), 80, pin=True) is False
        assert cache.get("p1") is None
        assert cache.keys() == ["p0"]
        assert cache.used == 80
        assert cache.stats.evictions == 0

    def test_remove_is_not_an_eviction(self):
        cache = _cache(1000)
        cache.put("o", np.zeros(10), 80)
        assert cache.remove("o") is True
        assert cache.remove("o") is False
        assert cache.used == 0
        assert cache.stats.evictions == 0


class TestMemoryTierCountsAsBufferpool:
    """Hits, misses and invalidations belong to the cache's owner; the
    materialization store's memory tier counts them as ``bufferpool.*``
    beside the block pool's."""

    def test_lookup_counts_tier_hit_and_miss(self):
        store = MaterializationStore(capacity_bytes=1000, min_flops=0.0)
        a, b = Fingerprint("a", (), ""), Fingerprint("b", (), "")
        store.put(a, np.ones((10, 10)), flops=1.0)  # 800 B
        assert store.lookup(a) is not None
        assert store.pool.stats.hits == 1
        store.put(b, np.ones((10, 10)), flops=1.0)  # evicts a
        assert store.lookup(a) is None  # known entry, lost from memory
        assert store.pool.stats.misses == 1
        assert get_registry().value("bufferpool.hits") == 1
        assert get_registry().value("bufferpool.misses") == 1

    def test_corrupt_counts_invalidations_not_evictions(self, tmp_path):
        store = MaterializationStore(tmp_path, min_flops=0.0)
        fp = Fingerprint("s", (), "")
        store.put(fp, np.zeros(10), flops=1.0)
        store.corrupt(fp)  # drops the resident copy
        assert store.pool.used == 0
        assert store.pool.stats.invalidations == 1
        assert store.pool.stats.evictions == 0
        assert get_registry().value("bufferpool.invalidations") == 1

    def test_blocks_and_objects_share_one_series(self):
        block_store = BlockStore()
        for i in range(3):
            block_store.write(f"b{i}", np.full(10, float(i)))
        pool = BufferPool(block_store, capacity_bytes=160)
        for i in range(3):
            pool.get(f"b{i}")  # third read evicts the first
        store = MaterializationStore(capacity_bytes=1000, min_flops=0.0)
        store.put(Fingerprint("a", (), ""), np.ones((10, 10)), flops=1.0)
        store.put(Fingerprint("b", (), ""), np.ones((10, 10)), flops=1.0)
        assert pool.stats.evictions == store.pool.stats.evictions == 1
        assert get_registry().value("bufferpool.evictions") == 2
