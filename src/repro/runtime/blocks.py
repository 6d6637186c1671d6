"""Block-partitioned matrices over the buffer pool.

A :class:`BlockedMatrix` is split into row-panel blocks held in a
:class:`~repro.runtime.bufferpool.BlockStore` and accessed through a
:class:`~repro.runtime.bufferpool.BufferPool`. Iterative algorithms that
stream the matrix once per epoch (exactly the access pattern of GLM
training) hit the pool's cache when it is large enough and thrash when it
is not — the behaviour experiment E9 measures.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .bufferpool import BlockStore, BufferPool


class BlockedMatrix:
    """A dense matrix stored as horizontal row panels in a block store."""

    def __init__(
        self,
        store: BlockStore,
        name: str,
        shape: tuple[int, int],
        block_rows: int,
    ):
        self._store = store
        self.name = name
        self.shape = shape
        self.block_rows = block_rows
        self.num_blocks = -(-shape[0] // block_rows)  # ceil division

    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        store: BlockStore,
        name: str,
        block_rows: int = 256,
    ) -> "BlockedMatrix":
        """Partition ``array`` into row panels and write them to the store."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ExecutionError(f"expected a 2-D array, got {array.ndim}-D")
        if block_rows < 1:
            raise ExecutionError("block_rows must be >= 1")
        blocked = cls(store, name, array.shape, block_rows)
        for b in range(blocked.num_blocks):
            start = b * block_rows
            panel = array[start : start + block_rows]
            block_id = blocked.block_id(b)
            store.write(block_id, panel)
            # Lineage: this panel is a pure slice of the source array, so
            # a corrupted copy in the store can always be recomputed.
            store.register_lineage(block_id, lambda panel=panel: panel)
        return blocked

    def block_id(self, index: int) -> str:
        return f"{self.name}/{index}"

    def block_rows_of(self, index: int) -> tuple[int, int]:
        """(start_row, end_row) covered by a block."""
        start = index * self.block_rows
        return start, min(start + self.block_rows, self.shape[0])

    def get_block(self, index: int, pool: BufferPool) -> np.ndarray:
        if not 0 <= index < self.num_blocks:
            raise ExecutionError(
                f"block index {index} out of range [0, {self.num_blocks})"
            )
        return pool.get(self.block_id(index))

    def to_array(self, pool: BufferPool) -> np.ndarray:
        """Reassemble the full matrix (through the pool)."""
        return np.vstack(
            [self.get_block(b, pool) for b in range(self.num_blocks)]
        )

    # ------------------------------------------------------------------
    # Blocked kernels (the access patterns iterative ML generates)
    # ------------------------------------------------------------------
    def matvec(self, v: np.ndarray, pool: BufferPool) -> np.ndarray:
        """X @ v, streaming blocks through the pool."""
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if len(v) != self.shape[1]:
            raise ExecutionError(
                f"vector length {len(v)} != matrix cols {self.shape[1]}"
            )
        parts = [
            self.get_block(b, pool) @ v for b in range(self.num_blocks)
        ]
        return np.concatenate(parts)
