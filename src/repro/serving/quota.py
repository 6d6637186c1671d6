"""Per-tenant admission quotas: deterministic token buckets.

Multi-tenant serving fails unfairly without isolation: one hot tenant
fills every queue and the *other* tenants' requests shed. The fabric
therefore meters admission per tenant **before** a request ever touches
a shard queue — a classic token bucket, but built the way everything in
this runtime is built: the clock is injectable and every decision is
pure arithmetic over (capacity, refill rate, arrival time), so a seeded
arrival schedule sheds an exactly countable set of requests (the E26
quota gate) instead of a timing-dependent one.

A tenant over its quota sheds *its own* overflow with a
:class:`~repro.errors.LoadShedError` carrying ``reason="quota"`` and the
tenant in its structured context; tenants within quota are unaffected.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..errors import ServingError


class TokenBucket:
    """One tenant's admission budget.

    Args:
        capacity: burst size — the most requests admitted back-to-back.
        refill_per_s: sustained admission rate (tokens per second).
        clock: injectable monotonic clock (benchmarks drive a fake
            clock along a deterministic arrival schedule).
    """

    def __init__(
        self,
        capacity: float,
        refill_per_s: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity <= 0:
            raise ServingError(f"capacity must be > 0, got {capacity}")
        if refill_per_s < 0:
            raise ServingError(
                f"refill_per_s must be >= 0, got {refill_per_s}"
            )
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._tokens = float(capacity)
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.refill_per_s
            )
        self._refilled_at = now

    def try_take(self) -> bool:
        """Admit (consume one token) or refuse without consuming."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class AdmissionQuotas:
    """Tenant -> bucket map with an admitted/shed ledger.

    Tenants without a configured quota (and requests with no tenant at
    all) are admitted unmetered.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._buckets: dict[object, TokenBucket] = {}
        self._lock = threading.Lock()
        #: exact per-tenant ledger: tenant -> [admitted, shed]
        self.ledger: dict[object, list[int]] = {}

    def set_quota(
        self, tenant: object, capacity: float, refill_per_s: float
    ) -> None:
        with self._lock:
            self._buckets[tenant] = TokenBucket(
                capacity, refill_per_s, self._clock
            )

    def bucket(self, tenant: object) -> TokenBucket | None:
        return self._buckets.get(tenant)

    @property
    def configured(self) -> bool:
        return bool(self._buckets)

    # ------------------------------------------------------------------
    def admit(self, tenant: object) -> bool:
        """One admission decision, recorded in the exact ledger."""
        if tenant is None:
            return True
        bucket = self.bucket(tenant)
        if bucket is None:
            admitted = True
        else:
            admitted = bucket.try_take()
        with self._lock:
            counts = self.ledger.setdefault(tenant, [0, 0])
            counts[0 if admitted else 1] += 1
        return admitted

    def stats(self) -> dict:
        """Per-tenant admitted/shed counts (stringified tenant keys)."""
        with self._lock:
            return {
                str(tenant): {"admitted": counts[0], "shed": counts[1]}
                for tenant, counts in sorted(
                    self.ledger.items(), key=lambda kv: str(kv[0])
                )
            }
