"""Versioned prediction cache with TTL and promotion invalidation.

Online scoring is read-heavy and repetitive — the same entities are
scored again and again between model updates (Kara et al. keep scoring
incremental for exactly this reason). Entries are keyed on
``(endpoint, model_version, row key)``: the version in the key means a
promoted model can never serve a predecessor's cached answer, and
:meth:`PredictionCache.invalidate` additionally evicts an endpoint's
entries eagerly on promote/rollback so stale rows do not squat in the
LRU ring. The server passes the row's full bytes as the row key, so a
hit is decided on the whole row — a 32-bit :func:`feature_hash` would
let two colliding entities answer for each other.

The cache owns its key, the TTL rule and the lock; ordering and
eviction are :class:`~repro.cache.BoundedCache` at cost 1 per entry,
and every count is one :class:`~repro.obs.Ledger` write
(``serving.cache.*``).
"""

from __future__ import annotations

import threading
import time
import zlib
from collections.abc import Hashable
from typing import Callable

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
    """LRU + TTL cache of scalar predictions, thread-safe.

    Args:
        capacity: maximum number of cached predictions.
        ttl_s: entry lifetime in seconds (None = no expiry).
        clock: injectable monotonic clock (tests advance a fake).
    """

    def __init__(
        self,
        capacity: int = 4096,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ServingError("cache capacity must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ServingError("ttl_s must be positive (or None)")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self.stats = Ledger(
            "serving.cache",
            ("hits", "misses", "invalidations", "evictions", "expirations"),
        )
        # (endpoint, version, row key) -> (stored at, prediction)
        self._entries = BoundedCache(capacity, self.stats)

    # ------------------------------------------------------------------
    def get(self, endpoint: str, version: int, row_key: Hashable) -> float | None:
        """The cached prediction, or None on miss/expiry."""
        key = (endpoint, version, row_key)
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stored_at, value = entry
                if self.ttl_s is None or now - stored_at < self.ttl_s:
                    self.stats.inc("hits")
                    return value
                self._entries.remove(key)
                self.stats.inc("expirations")
            self.stats.inc("misses")
        return None

    def put(
        self, endpoint: str, version: int, row_key: Hashable, value: float
    ) -> None:
        with self._lock:
            self._entries.put(
                (endpoint, version, row_key), (self._clock(), float(value))
            )

    def invalidate(self, endpoint: str) -> int:
        """Evict every entry of one endpoint (any version); returns the
        count. Called on promote/rollback."""
        with self._lock:
            stale = [k for k in self._entries.keys() if k[0] == endpoint]
            for key in stale:
                self._entries.remove(key)
            self.stats.inc("invalidations", len(stale))
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
