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
A call's rows are admitted once per tenant, not once per row: per
bucket, one clock read, refill and take of whole tokens decide them
all — the arithmetic the per-row decisions performed at one instant.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Sequence

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

    def try_take(self, n: int = 1) -> int:
        """Admit up to ``n`` requests arriving together; returns how many.

        One refill, then one token per admitted request: the same bytes
        ``n`` one-token decisions at this instant leave, because
        subtracting a whole number of tokens below 2**53 is exact."""
        with self._lock:
            self._refill(self._clock())
            taken = min(n, int(self._tokens))
            self._tokens -= taken
            return taken


class AdmissionQuotas:
    """Tenant -> bucket map with an admitted/shed ledger.

    Tenants without a configured quota (and requests with no tenant at
    all) are admitted unmetered.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._buckets: dict[object, TokenBucket] = {}
        #: held across every decision's take and count, so a call's
        #: all-or-nothing check and its takes are one step
        self._lock = threading.RLock()
        #: exact per-tenant ledger: tenant -> [admitted, shed]
        self.ledger: dict[object, list[int]] = {}
        #: whether any tenant is metered (read by the fleet on every call)
        self.configured = False

    def set_quota(
        self, tenant: object, capacity: float, refill_per_s: float
    ) -> None:
        with self._lock:
            self._buckets[tenant] = TokenBucket(
                capacity, refill_per_s, self._clock
            )
            self.configured = True

    def bucket(self, tenant: object) -> TokenBucket | None:
        return self._buckets.get(tenant)

    # ------------------------------------------------------------------
    def admit(self, tenant: object, n: int = 1) -> int:
        """One admission decision for ``n`` requests of one tenant that
        arrive together (a call's rows): the first ``k`` are admitted,
        the rest shed, with ``k`` the bucket's whole tokens — the same
        ``k``, tokens and ``[admitted, shed]`` as ``n`` one-request
        decisions. Returns ``k``; both counts land in the exact ledger."""
        if tenant is None:
            return n
        bucket = self.bucket(tenant)
        with self._lock:
            admitted = n if bucket is None else bucket.try_take(n)
            counts = self.ledger.setdefault(tenant, [0, 0])
            counts[0] += admitted
            counts[1] += n - admitted
        return admitted

    def admit_all(self, tenants: Sequence[object]) -> int | None:
        """Admit every metered row of a call or none of them — the
        decision of a call that raises on a shed. Under the quotas' lock
        each metered bucket is refilled once and checked for its rows in
        one hold of its own lock; if all hold, each takes them in that
        hold (what one :meth:`admit` per tenant leaves) and ``None`` is
        returned. Otherwise no bucket is charged, the first refused row
        (in row order) counts one shed on its tenant, and its index is
        returned."""
        wanted = Counter(tenants)
        wanted.pop(None, None)
        held, refused = [], None  # (bucket, its rows) whose lock is taken
        with self._lock:
            try:
                for tenant, n in wanted.items():
                    bucket = self._buckets.get(tenant)
                    if bucket is None:
                        continue
                    bucket._lock.acquire()
                    held.append((bucket, n))
                    bucket._refill(bucket._clock())
                    room = int(bucket._tokens)
                    if room < n:
                        rows = [i for i, t in enumerate(tenants) if t == tenant]
                        if refused is None or rows[room] < refused:
                            refused = rows[room]
                for bucket, n in held if refused is None else ():
                    bucket._tokens -= n
            finally:
                for bucket, _ in held:
                    bucket._lock.release()
            if refused is None:
                for tenant, n in wanted.items():
                    self.ledger.setdefault(tenant, [0, 0])[0] += n
            else:
                self.ledger.setdefault(tenants[refused], [0, 0])[1] += 1
        return refused

    def stats(self) -> dict:
        """Per-tenant admitted/shed counts (stringified tenant keys)."""
        with self._lock:
            return {
                str(tenant): {"admitted": counts[0], "shed": counts[1]}
                for tenant, counts in sorted(
                    self.ledger.items(), key=lambda kv: str(kv[0])
                )
            }
