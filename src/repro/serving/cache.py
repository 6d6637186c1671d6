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

The cache owns its key and the lock; ordering and
eviction are :class:`~repro.cache.BoundedCache` at cost 1 per entry,
and its counts are :class:`~repro.obs.Ledger` writes
(``serving.cache.*``). A probe covers one call's rows: one lock and one
hits / misses write per call, while each miss is still filled by its
own ``put`` once it has been scored.
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
        # (version, row key) -> prediction
        self._entries = BoundedCache(capacity, self.stats)

    # ------------------------------------------------------------------
    def get(
        self, versions: Sequence[int], row_keys: Sequence[Hashable]
    ) -> list[float | None]:
        """Probe one call's rows — ``(versions[i], row_keys[i])`` is row
        ``i``'s key — under one lock, in row order; returns each row's
        cached prediction, or None on a miss. Hits and misses are counted
        once per call."""
        values = []
        misses = 0
        with self._lock:
            lookup = self._entries.get
            for version, row_key in zip(versions, row_keys):
                value = lookup((version, row_key))
                if value is None:
                    misses += 1
                values.append(value)
            if misses:
                self.stats.inc("misses", misses)
            if misses < len(values):
                self.stats.inc("hits", len(values) - misses)
        return values

    def put(self, version: int, row_key: Hashable, value: float) -> None:
        with self._lock:
            self._entries.put((version, row_key), float(value))

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
