"""E9 — Buffer-pool behaviour under iterative ML access patterns.

Surveyed claim: when the working set fits, epoch-over-epoch scans are
served from cache (hit ratio -> 1) and backing-store I/O stays flat; when
it does not, the sequential scan thrashes LRU and every epoch pays full
I/O.
"""

import harness  # ahead of numpy: it pins BLAS threads
import numpy as np

from repro.runtime import BlockedMatrix, BlockStore, BufferPool

EPOCHS = 5


def run() -> dict:
    rng = np.random.default_rng(41)
    n, d, block_rows = 40_000, 16, 2_000
    X = rng.standard_normal((n, d))
    block_bytes = block_rows * d * 8
    num_blocks = n // block_rows
    v = np.ones(d)
    rows = []
    for pool_blocks in (2, 5, 10, 15, 21):
        store = BlockStore()
        bm = BlockedMatrix.from_array(X, store, "X", block_rows)
        pool = BufferPool(store, capacity_bytes=block_bytes * pool_blocks)
        for _ in range(EPOCHS):
            bm.matvec(v, pool)
        if pool_blocks > num_blocks:
            # the working set fits: only the first epoch reads the store
            assert store.reads == num_blocks and pool.stats.hit_ratio > 0.75
        else:
            # a sequential scan thrashes LRU: every epoch re-reads it all
            assert store.reads == num_blocks * EPOCHS
            assert pool.stats.hit_ratio == 0.0
        rows.append(
            {
                "pool_blocks": pool_blocks,
                "hit_ratio": pool.stats.hit_ratio,
                "store_reads": store.reads,
                "evictions": pool.stats.evictions,
            }
        )
    return {"num_blocks": num_blocks, "rows": rows}


def report(results: dict) -> None:
    print(f"{'pool (blocks)':>14} {'hit ratio':>10} {'store reads':>12} "
          f"{'evictions':>10}")
    for r in results["rows"]:
        print(
            f"{r['pool_blocks']:>14} {r['hit_ratio']:>10.2f} "
            f"{r['store_reads']:>12} {r['evictions']:>10}"
        )
    print(f"(matrix = {results['num_blocks']} blocks; epochs hit once the "
          "pool holds all)")
