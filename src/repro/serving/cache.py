"""Versioned prediction cache with promotion invalidation.

Online scoring is read-heavy and repetitive — the same entities are
scored again and again between model updates (Kara et al. keep scoring
incremental for exactly this reason). Each endpoint owns one cache, and
entries are keyed on ``(model_version, row key)``: the version in the
key means a promoted model can never serve a predecessor's cached
answer, and :meth:`PredictionCache.invalidate` additionally clears the
cache eagerly on promote so stale rows do not squat in the LRU ring.
The server passes the row's full bytes as the row key, so a hit is
decided on the whole row — a 32-bit :func:`feature_hash` would let two
colliding entities answer for each other.

Ordering and eviction are :class:`~repro.cache.BoundedCache` at cost 1
per entry, counts are :class:`~repro.obs.Ledger` writes
(``serving.cache.*``), and both doors take one call's rows under one
lock: a probe, with one hits / misses write, and the fill of the
call's scored misses, in row order.
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Hashable, Sequence

import numpy as np

from ..cache import BoundedCache
from ..errors import ServingError
from ..obs import Ledger


def feature_hash(row: np.ndarray) -> int:
    """Process-independent hash of one feature vector.

    Hashes dtype, shape, and the raw little-endian bytes, so equal
    vectors hash equally across processes and runs (builtin ``hash`` is
    salted per interpreter).
    """
    arr = np.ascontiguousarray(row, dtype=np.float64)
    header = f"{arr.shape}".encode("utf-8")
    return zlib.crc32(arr.tobytes(), zlib.crc32(header))


class PredictionCache:
    """LRU cache of scalar predictions, thread-safe.

    Args:
        capacity: maximum number of cached predictions.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ServingError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self.stats = Ledger(
            "serving.cache", ("hits", "misses", "invalidations", "evictions")
        )
        # (version, row key) -> prediction; ``_lock`` guards it
        self._entries = BoundedCache(capacity, self.stats)

    # ------------------------------------------------------------------
    def get(
        self, versions: Sequence[int], row_keys: Sequence[Hashable]
    ) -> list[float | None]:
        """Probe one call's rows — ``(versions[i], row_keys[i])`` is row
        ``i``'s key — under one lock, in row order; returns each row's
        cached prediction, or None on a miss. Hits and misses are counted
        once per call."""
        with self._lock:
            values = self._entries.get_many(zip(versions, row_keys))
        misses = values.count(None)
        hits = len(values) - misses
        cell = self.stats.cell()  # field -> [count, updates]
        if misses:
            slot = cell["misses"]
            slot[0] += misses
            slot[1] += 1
        if hits:
            slot = cell["hits"]
            slot[0] += hits
            slot[1] += 1
        return values

    def put(
        self, versions: Sequence[int], row_keys: Sequence, values: Sequence
    ) -> None:
        """Fill one call's scored rows — ``values[i]`` under ``(versions[i],
        row_keys[i])`` — under one lock, in row order (so LRU recency is
        the per-row walk's)."""
        with self._lock:
            self._entries.put_many(zip(versions, row_keys), values)

    def invalidate(self) -> int:
        """Drop every entry (any version); returns the count. Called on
        promote."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.inc("invalidations", dropped)
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
