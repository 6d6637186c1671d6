"""Versioned prediction cache with promotion invalidation.

Online scoring is read-heavy and repetitive — the same entities are
scored again and again between model updates (Kara et al. keep scoring
incremental for exactly this reason). Entries are keyed on
``(endpoint, model_version, row key)``: the version in the key means a
promoted model can never serve a predecessor's cached answer, and
:meth:`PredictionCache.invalidate` additionally evicts an endpoint's
entries eagerly on promote so stale rows do not squat in the
LRU ring. The server passes the row's full bytes as the row key, so a
hit is decided on the whole row — a 32-bit :func:`feature_hash` would
let two colliding entities answer for each other.

The cache owns its key and the lock; ordering and
eviction are :class:`~repro.cache.BoundedCache` at cost 1 per entry,
and every count is one :class:`~repro.obs.Ledger` write
(``serving.cache.*``).
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Hashable

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
        # (endpoint, version, row key) -> prediction
        self._entries = BoundedCache(capacity, self.stats)

    # ------------------------------------------------------------------
    def get(self, endpoint: str, version: int, row_key: Hashable) -> float | None:
        """The cached prediction, or None on a miss."""
        with self._lock:
            value = self._entries.get((endpoint, version, row_key))
            self.stats.inc("misses" if value is None else "hits")
        return value

    def put(
        self, endpoint: str, version: int, row_key: Hashable, value: float
    ) -> None:
        with self._lock:
            self._entries.put((endpoint, version, row_key), float(value))

    def invalidate(self, endpoint: str) -> int:
        """Evict every entry of one endpoint (any version); returns the
        count. Called on promote."""
        with self._lock:
            stale = [k for k in self._entries.keys() if k[0] == endpoint]
            for key in stale:
                self._entries.remove(key)
            self.stats.inc("invalidations", len(stale))
        return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
