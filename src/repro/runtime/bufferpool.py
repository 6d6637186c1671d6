"""LRU buffer pool for matrix blocks.

Declarative ML systems keep block-partitioned matrices on a storage tier
and cache hot blocks in memory; iterative algorithms then hit the cache
on every epoch after the first. This module simulates that memory
hierarchy: a :class:`BlockStore` is the 'disk' (counting reads/writes) and
the :class:`BufferPool` is :class:`~repro.cache.BoundedCache` — budgeted
in bytes, with pinning — plus read-through and write-through to it.

Hits, misses, evictions, invalidations and store I/O are each one
:class:`~repro.obs.Ledger` write: the pool's ``stats`` and the store's
counters are the per-run view, ``bufferpool.*`` / ``blockstore.*`` in
the :mod:`repro.obs` registry the process-wide one.

Every block is stored with its CRC32. A read verifies the checksum and,
on mismatch (bit rot, or chaos-injected corruption at site
``"blockstore.read"``), repairs the block by *recomputing it from its
registered lineage* — the SystemML/Spark recovery model, where lost or
damaged intermediates are rebuilt from the plan rather than replicated.
Blocks with no lineage raise :class:`~repro.errors.CorruptedBlockError`.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable

import numpy as np

from ..cache import BoundedCache
from ..errors import CorruptedBlockError, ExecutionError
from ..obs import Counted, Ledger
from ..resilience.faults import fault_point, no_chaos


class BlockStore(Counted):
    """Backing storage for blocks, with I/O accounting.

    Blocks are stored as immutable bytes to model the
    serialize-on-write / deserialize-on-read cost of a real tier.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, tuple[bytes, tuple[int, int], int]] = {}
        self._lineage: dict[str, Callable[[], np.ndarray]] = {}
        self.counts = Ledger("blockstore", (
            "reads", "writes", "bytes_read", "bytes_written",
            "corruptions_detected", "corruptions_repaired",
        ))

    def write(self, block_id: str, array: np.ndarray) -> None:
        data = np.ascontiguousarray(array, dtype=np.float64).tobytes()
        self._blocks[block_id] = (data, array.shape, zlib.crc32(data))
        self.counts.inc("writes")
        self.counts.inc("bytes_written", len(data))

    def register_lineage(
        self, block_id: str, recompute: Callable[[], np.ndarray]
    ) -> None:
        """Attach a recompute function used to repair a corrupt block."""
        self._lineage[block_id] = recompute

    def corrupt(self, block_id: str) -> None:
        """Flip one byte of a stored block (test/chaos hook).

        The flipped position is derived from the block id, so injected
        corruption is deterministic.
        """
        if block_id not in self._blocks:
            raise ExecutionError(f"no block {block_id!r} in store")
        data, shape, crc = self._blocks[block_id]
        if not data:
            return
        pos = zlib.crc32(block_id.encode("utf-8")) % len(data)
        mutated = data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1 :]
        self._blocks[block_id] = (mutated, shape, crc)

    def read(self, block_id: str) -> np.ndarray:
        if block_id not in self._blocks:
            raise ExecutionError(f"no block {block_id!r} in store")
        if fault_point("blockstore.read", key=block_id) == "corrupt":
            self.corrupt(block_id)
        data, shape, crc = self._blocks[block_id]
        if zlib.crc32(data) != crc:
            self._repair(block_id)
            data, shape, crc = self._blocks[block_id]
        self.counts.inc("reads")
        self.counts.inc("bytes_read", len(data))
        return np.frombuffer(data, dtype=np.float64).reshape(shape).copy()

    def _repair(self, block_id: str) -> None:
        """Rebuild a corrupt block from lineage (or fail loudly)."""
        self.counts.inc("corruptions_detected")
        recompute = self._lineage.get(block_id)
        if recompute is None:
            raise CorruptedBlockError(block_id)
        # Repair runs off the failed read path: chaos is masked so the
        # rewrite can't be re-corrupted forever at fault rate 1.0.
        with no_chaos():
            array = np.ascontiguousarray(recompute(), dtype=np.float64)
            self.write(block_id, array)
        self.counts.inc("corruptions_repaired")

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)


def pool_ledger() -> Ledger:
    """A ``bufferpool.*`` ledger: one series for every byte-budgeted
    memory tier (block pools and the materialization store's)."""
    return Ledger(
        "bufferpool", ("hits", "misses", "evictions", "invalidations")
    )


class BufferPool:
    """Byte-budgeted LRU cache of blocks over a :class:`BlockStore`."""

    def __init__(self, store: BlockStore, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ExecutionError("buffer pool capacity must be positive")
        self._store = store
        self.stats = pool_ledger()
        self._cache = BoundedCache(capacity_bytes, self.stats)

    @property
    def capacity_bytes(self) -> int:
        return self._cache.budget

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._cache

    def get(self, block_id: str) -> np.ndarray:
        """Fetch a block, serving from cache when possible."""
        array = self._cache.get(block_id)
        if array is not None:
            self.stats.inc("hits")
            return array
        self.stats.inc("misses")
        array = self._store.read(block_id)
        self._cache.put(block_id, array, array.nbytes)
        return array
