"""Unit tests for the buffer pool and blocked matrices."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.runtime import BlockedMatrix, BlockStore, BufferPool


def _store_with_blocks(n_blocks=4, size=10):
    store = BlockStore()
    for i in range(n_blocks):
        store.write(f"b{i}", np.full((size,), float(i)))
    return store


class TestBlockStore:
    def test_write_read_roundtrip(self, rng):
        store = BlockStore()
        arr = rng.standard_normal((4, 3))
        store.write("x", arr)
        assert np.array_equal(store.read("x"), arr)

    def test_read_unknown_raises(self):
        with pytest.raises(ExecutionError):
            BlockStore().read("nope")

    def test_io_accounting(self):
        store = _store_with_blocks(2, size=10)
        assert store.writes == 2
        assert store.bytes_written == 2 * 10 * 8
        store.read("b0")
        assert store.reads == 1
        assert store.bytes_read == 80


class TestBufferPool:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ExecutionError):
            BufferPool(BlockStore(), 0)

    def test_hit_after_miss(self):
        pool = BufferPool(_store_with_blocks(), capacity_bytes=10_000)
        pool.get("b0")
        pool.get("b0")
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert pool.stats.hit_ratio == 0.5

    def test_lru_eviction_order(self):
        # Capacity for exactly 2 blocks of 80 bytes.
        pool = BufferPool(_store_with_blocks(3, size=10), capacity_bytes=160)
        pool.get("b0")
        pool.get("b1")
        pool.get("b0")  # touch b0: b1 becomes LRU
        pool.get("b2")  # evicts b1
        assert "b1" not in pool
        assert "b0" in pool and "b2" in pool
        assert pool.stats.evictions == 1

    def test_block_larger_than_pool_passes_through(self):
        store = BlockStore()
        store.write("big", np.zeros(1000))
        pool = BufferPool(store, capacity_bytes=100)
        out = pool.get("big")
        assert len(out) == 1000
        assert "big" not in pool



class TestBlockedMatrix:
    @pytest.fixture
    def blocked(self, rng):
        X = rng.standard_normal((103, 7))
        store = BlockStore()
        bm = BlockedMatrix.from_array(X, store, "X", block_rows=25)
        pool = BufferPool(store, capacity_bytes=10**7)
        return X, bm, pool

    def test_partitioning(self, blocked):
        X, bm, _ = blocked
        assert bm.num_blocks == 5  # ceil(103 / 25)
        assert bm.block_rows_of(4) == (100, 103)

    def test_roundtrip(self, blocked):
        X, bm, pool = blocked
        assert np.allclose(bm.to_array(pool), X)

    def test_matvec(self, blocked, rng):
        X, bm, pool = blocked
        v = rng.standard_normal(7)
        assert np.allclose(bm.matvec(v, pool), X @ v)

    def test_vector_length_validation(self, blocked):
        _, bm, pool = blocked
        with pytest.raises(ExecutionError):
            bm.matvec(np.ones(3), pool)

    def test_block_index_validation(self, blocked):
        _, bm, pool = blocked
        with pytest.raises(ExecutionError):
            bm.get_block(99, pool)

    def test_small_pool_thrashes_large_pool_hits(self, rng):
        X = rng.standard_normal((400, 8))
        store = BlockStore()
        bm = BlockedMatrix.from_array(X, store, "X", block_rows=50)
        block_bytes = 50 * 8 * 8

        big = BufferPool(store, capacity_bytes=block_bytes * 8)
        small = BufferPool(store, capacity_bytes=block_bytes * 2)
        v = rng.standard_normal(8)
        for _ in range(5):  # five epochs
            bm.matvec(v, big)
            bm.matvec(v, small)
        assert big.stats.hit_ratio > 0.7
        assert small.stats.hit_ratio == 0.0  # sequential scan thrashes LRU
