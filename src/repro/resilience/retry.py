"""Retry policies: bounded re-execution with deterministic backoff.

The recovery half of the chaos story: a :class:`RetryPolicy` describes
how many times a failed unit of work may be re-executed, how long to
back off between attempts (exponential with *deterministic* jitter — the
jitter sequence derives from the policy seed and the call's site/key, so
a chaos run's timing schedule is reproducible), and which exceptions are
worth retrying at all.

Because every unit of work this runtime retries is a pure function of
its inputs (a pmap task, a compiled-plan execution, a worker RPC over an
immutable shard), re-execution after a transient fault produces a
bit-identical result — the property E21 asserts end to end.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from ..errors import (
    DeadlineExceededError,
    InjectedFault,
    ReproError,
    ResilienceError,
    RetryExhaustedError,
    WorkerFailure,
)
from ..obs import get_registry, span
from .faults import fault_point

T = TypeVar("T")

#: exceptions retried by default: injected chaos and lost workers are
#: transient by construction; everything else is assumed deterministic
#: (a shape error will fail identically on every attempt).
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    InjectedFault,
    WorkerFailure,
    TimeoutError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    Args:
        max_attempts: total attempts including the first (>= 1).
        backoff_base: delay before the second attempt, in seconds.
        backoff_multiplier: growth factor per subsequent attempt.
        max_backoff: ceiling on any single delay.
        jitter: fraction of the delay drawn uniformly from
            ``[-jitter, +jitter]`` — deterministic per (seed, site, key,
            attempt), so two runs of the same chaos schedule sleep the
            same amounts.
        seed: jitter seed.
        retryable: exception classes worth re-executing for.
        sleep: injectable clock (tests pass a no-op to run instantly).
        clock: monotonic clock used to honour absolute deadlines
            (``deadline_at`` on :func:`call_with_retry`); injectable so
            deadline tests advance a fake.
    """

    max_attempts: int = 3
    backoff_base: float = 0.001
    backoff_multiplier: float = 2.0
    max_backoff: float = 0.25
    jitter: float = 0.1
    seed: int = 0
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.max_backoff < 0:
            raise ResilienceError("backoff durations must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(f"jitter must be in [0, 1], got {self.jitter}")

    # ------------------------------------------------------------------
    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, self.retryable)

    def delay(self, attempt: int, site: str = "", key: object = None) -> float:
        """Deterministic backoff before attempt ``attempt + 1``."""
        base = min(
            self.backoff_base * (self.backoff_multiplier ** (attempt - 1)),
            self.max_backoff,
        )
        if self.jitter == 0.0 or base == 0.0:
            return base
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(
                    zlib.crc32(site.encode("utf-8")),
                    zlib.crc32(repr(key).encode("utf-8")),
                    attempt,
                ),
            )
        )
        factor = 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return base * factor


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    site: str = "retry",
    key: object = None,
    deadline_at: float | None = None,
) -> T:
    """Run ``fn`` under ``policy``; raise ``RetryExhaustedError`` when
    every attempt fails (last failure chained as ``__cause__``).

    ``deadline_at`` (absolute, on ``policy.clock``) caps the *total*
    retry budget: once the deadline has passed — or the next backoff
    sleep would cross it — the call raises
    :class:`~repro.errors.DeadlineExceededError` instead of burning
    attempts past the request's admission deadline. A retried unit of
    work can therefore never outlive the budget its caller promised.
    """
    registry = get_registry()
    started = policy.clock() if deadline_at is not None else 0.0
    last: BaseException | None = None

    def _deadline_exceeded(cause: BaseException | None) -> None:
        registry.inc("resilience.retry_deadline_capped")
        budget_ms = max(0.0, (deadline_at - started) * 1000.0)
        raise DeadlineExceededError(site, budget_ms) from cause

    for attempt in range(1, policy.max_attempts + 1):
        try:
            result = fn()
        except Exception as exc:
            last = exc
            if not policy.is_retryable(exc) or attempt == policy.max_attempts:
                break
            if deadline_at is not None:
                delay = policy.delay(attempt, site, key)
                if policy.clock() + delay >= deadline_at:
                    _deadline_exceeded(exc)
            registry.inc("resilience.retries")
            registry.inc(f"resilience.retries.{site}")
            with span("resilience.retry", site=site, attempt=attempt):
                policy.sleep(policy.delay(attempt, site, key))
            continue
        if attempt > 1:
            registry.inc("resilience.recoveries")
            registry.inc(f"resilience.recoveries.{site}")
        return result
    assert last is not None
    if policy.is_retryable(last):
        registry.inc("resilience.retry_exhausted")
        raise RetryExhaustedError(site, key, policy.max_attempts) from last
    raise last


def resilient_call(
    fn: Callable[[], T],
    site: str,
    key: object = None,
    retry: RetryPolicy | None = None,
    deadline_at: float | None = None,
) -> T:
    """A registered fault site around a pure unit of work.

    Every attempt first consults :func:`fault_point` (so an installed
    :class:`ChaosContext` can fail it), then runs ``fn``. With a policy,
    transient failures — injected or real — are retried; without one the
    fault propagates to the caller. This is the hook iterative drivers
    (GLM, k-means, out-of-core) wrap their per-iteration step in.
    ``deadline_at`` caps the total retry budget (see
    :func:`call_with_retry`).
    """
    if retry is None:
        fault_point(site, key=key)
        return fn()

    def attempt() -> T:
        fault_point(site, key=key)
        return fn()

    return call_with_retry(
        attempt, retry, site=site, key=key, deadline_at=deadline_at
    )


#: convenience: a policy that retries ReproError subclasses too (used by
#: tests that inject non-transient-looking failures deliberately).
AGGRESSIVE_RETRYABLE = DEFAULT_RETRYABLE + (ReproError,)
