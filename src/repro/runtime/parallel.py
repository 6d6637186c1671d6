"""Cost-aware shared parallel execution engine.

The systems the tutorial surveys all exploit intra-query parallelism:
Bismarck's UDA contract exists so an RDBMS can run ``transition`` over
shared-nothing partitions and combine partials with ``merge``; SystemML's
runtime executes block operations with multi-threaded workers; model
selection is embarrassingly parallel across configurations. This module
is the one engine all of those layers share, and the only place a
data-parallel call is gated, timed, recorded, fault-injected and
recovered:

* :class:`ParallelContext` — a reusable pool of worker threads (numpy
  releases the GIL inside its kernels) behind a **cost-model gate**:
  :meth:`ParallelContext.pmap` runs serially below a tunable
  flops-equivalent threshold so tiny inputs never pay pool overhead, and
  fans out above it. Either outcome runs between the engine's own two
  clock reads and lands in the same ledger, in the same unit (items).
* :func:`dispatch` — the hand-off call sites make: the plain loop
  without a context, ``pmap`` with one.
* :func:`merge_tree` — deterministic pairwise (log-depth) reduction, the
  combine shape a partitioned engine uses for ``merge``.
* A dispatch ledger (:class:`ParallelStats`): tasks dispatched, serial
  fallbacks, wall time versus the summed per-task time (the estimated
  serial time), recovery counts — in total and per call site, on the
  context's ``stats``.

``REPRO_NUM_THREADS`` sets the default worker count for new contexts
(else ``os.cpu_count()``).

Determinism contract: ``pmap`` preserves item order and ``merge_tree``
uses a fixed association, so a parallel run produces the same reduction
shape — and therefore the same result for associative merges — as the
serial path.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Iterable, Sequence, TypeVar

from ..compiler import feedback as _feedback
from ..errors import ParallelTaskError, ReproError
from ..obs import Counted, Ledger, get_registry, span
from ..resilience.faults import fault_point
from ..resilience.retry import RetryPolicy

T = TypeVar("T")
R = TypeVar("R")

#: flops-equivalent cost of one Python-level per-row call (used by call
#: sites whose work is a Python loop rather than a numpy kernel).
PYTHON_CALL_FLOPS = 200.0

#: default cost gate: below this many flops-equivalents, dispatch serially.
DEFAULT_COST_THRESHOLD = 250_000.0

#: thread-name prefix marking pool workers (the re-entrancy guard).
_WORKER_PREFIX = "repro-parallel"


def default_num_threads() -> int:
    """Worker count: ``REPRO_NUM_THREADS`` if set, else ``os.cpu_count()``."""
    raw = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ReproError(
            f"REPRO_NUM_THREADS must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ReproError(f"REPRO_NUM_THREADS must be >= 1, got {value}")
    return value


class ParallelStats(Counted):
    """One dispatch record: a context's totals, or one call site's share.

    The integer fields are a :class:`~repro.obs.Ledger` — ``parallel.*``
    for the totals, ``parallel.sites.<site>.*`` for a site's entry — so
    each count reads as an attribute here and sums process-wide in the
    registry. ``task_failures`` is every failed execution, ``retries``
    every re-execution after a real failure, ``stragglers`` every
    timed-out task re-run as a backup, and ``recovered_tasks`` every
    task that succeeded only through one of those.
    """

    def __init__(self, prefix: str = "parallel"):
        self.counts = Ledger(
            prefix,
            ("calls", "parallel_calls", "serial_fallbacks", "tasks_dispatched",
             "task_failures", "retries", "stragglers", "recovered_tasks"),
        )
        self.wall_time = 0.0
        self.task_time = 0.0
        #: wall/summed-task time of *parallel* dispatches only, so the
        #: realized speedup is not diluted by serial calls.
        self.parallel_wall_time = 0.0
        self.parallel_task_time = 0.0
        self.by_site: dict[str, ParallelStats] = {}

    def site(self, name: str) -> "ParallelStats":
        """The entry of one call site (created on first use)."""
        entry = self.by_site.get(name)
        if entry is None:
            entry = self.by_site.setdefault(
                name, ParallelStats(f"parallel.sites.{name}")
            )
        return entry

    def count(self, site: str, field: str, n: int = 1) -> None:
        """Count ``n`` events on these totals and on ``site``'s entry."""
        self.counts.inc(field, n)
        self.site(site).counts.inc(field, n)

    def observe(
        self, site: str, tasks: int, parallel: bool, wall: float, work: float
    ) -> None:
        """Fold one dispatch outcome into the totals and the site's entry."""
        decision = "parallel_calls" if parallel else "serial_fallbacks"
        for record in (self, self.site(site)):
            record.counts.inc("calls")
            record.counts.inc("tasks_dispatched", tasks)
            record.counts.inc(decision)
            record.wall_time += wall
            record.task_time += work
            if parallel:
                record.parallel_wall_time += wall
                record.parallel_task_time += work

    @property
    def realized_speedup(self) -> float:
        """Summed task time over wall time across the fan-outs."""
        if self.parallel_wall_time <= 0:
            return 1.0
        return self.parallel_task_time / self.parallel_wall_time

    #: the name the totals have always reported the same ratio under.
    estimated_speedup = realized_speedup

    def as_dict(self, sites: bool = True) -> dict[str, Any]:
        out = {
            **self.counts.as_dict(),
            "wall_time": self.wall_time,
            "task_time": self.task_time,
            "estimated_speedup": self.realized_speedup,
            "realized_speedup": self.realized_speedup,
            "decisions": {
                "parallel": self.parallel_calls,
                "serial": self.serial_fallbacks,
            },
        }
        if sites:
            out["by_site"] = {
                name: entry.as_dict(sites=False)
                for name, entry in self.by_site.items()
            }
        return out


def _guarded_task(fn: Callable[[T], R], site: str, index: int, item: T) -> R:
    """One task execution behind its fault-injection site.

    The fault point is keyed by task index, so an installed
    :class:`ChaosContext` decides each task's fate deterministically
    regardless of thread scheduling.
    """
    fault_point(f"parallel.task.{site}", key=index)
    return fn(item)


def _timed_task(
    fn: Callable[[T], R], site: str, index: int, item: T
) -> tuple[float, R]:
    """A pooled task's first execution, with its duration."""
    start = time.perf_counter()
    value = _guarded_task(fn, site, index, item)
    return time.perf_counter() - start, value


class ParallelContext:
    """A reusable worker pool with cost-model-gated dispatch.

    Args:
        max_workers: pool size; defaults to ``REPRO_NUM_THREADS`` or the
            machine's CPU count. With one worker every call runs serially
            (and counts as a fallback).
        cost_threshold: flops-equivalent gate; ``pmap`` calls whose
            ``cost_hint`` falls below it run serially. ``0`` disables the
            gate (everything eligible fans out).
        retry_policy: the :class:`~repro.resilience.RetryPolicy` applied
            to every task. ``None`` disables retries: a failed task
            raises :class:`~repro.errors.ParallelTaskError` immediately.
        task_timeout: per-task gather timeout in seconds; a task that
            has not produced its result within the bound is abandoned
            as a straggler and re-executed on the caller (speculative
            backup, MapReduce-style). ``None`` waits forever.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cost_threshold: float | None = None,
        retry_policy: RetryPolicy | None = None,
        task_timeout: float | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = (
            max_workers if max_workers is not None else default_num_threads()
        )
        self.cost_threshold = (
            DEFAULT_COST_THRESHOLD if cost_threshold is None else cost_threshold
        )
        if task_timeout is not None and task_timeout <= 0:
            raise ReproError(f"task_timeout must be > 0, got {task_timeout}")
        self.retry_policy = retry_policy
        self.task_timeout = task_timeout
        self.stats = ParallelStats()
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=_WORKER_PREFIX,
                )
            return self._executor

    def shutdown(self) -> None:
        """Tear down the pool. Idempotent and safe under concurrency.

        The executor is detached under the lock but drained *outside*
        it: a pooled task that re-enters this context (nested-serial
        pmap records into ``stats`` under the same lock) can then finish
        while we wait, so a concurrent shutdown can no longer deadlock,
        and a second shutdown finds ``None`` and returns immediately. A
        ``pmap`` racing with shutdown either got the old executor (its
        submits fail with ``RuntimeError`` and it recovers serially) or
        lazily builds a fresh pool afterwards.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ParallelContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def should_parallelize(
        self, num_tasks: int, cost_hint: float | None, site: str | None = None
    ) -> bool:
        """The cost-model gate, exposed for planners and tests.

        With an active feedback store and a ``site``, the static FLOP
        threshold yields to the site's learned policy: a site whose
        measured speedup fell below 1 dispatches serially, and a
        winning site's threshold is divided by its measured speedup.
        Without feedback (the default) the behavior is exactly the
        static gate.
        """
        if self.max_workers < 2 or num_tasks < 2:
            return False
        if threading.current_thread().name.startswith(_WORKER_PREFIX):
            # Re-entrant pmap from inside a pool task: running it on the
            # same bounded pool could deadlock, so nest serially.
            return False
        threshold = self.cost_threshold
        if site is not None:
            store = _feedback.active_store()
            if store is not None:
                policy = store.site_policy(site)
                if policy is not None:
                    if policy.action == "serial":
                        get_registry().inc("parallel.feedback_serial")
                        return False
                    if policy.action == "boost":
                        get_registry().inc("parallel.feedback_boosts")
                        threshold = self.cost_threshold / max(
                            policy.speedup, 1e-9
                        )
        if cost_hint is not None and cost_hint < threshold:
            return False
        return True

    def pmap(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        cost_hint: float | None = None,
        site: str = "pmap",
        serial: Callable[[], Any] | None = None,
        combine: Callable[[list[R]], Any] | None = None,
    ) -> Any:
        """Order-preserving map with cost-gated fan-out and recovery.

        Every task runs behind the fault site ``parallel.task.<site>``
        (keyed by task index), so an installed chaos context can fail,
        corrupt, or slow it deterministically. A failed task is
        re-executed on the caller under the context's retry policy, and
        one that exceeds ``task_timeout`` is abandoned and re-executed
        the same way (straggler backup). A failure that survives every
        attempt raises :class:`~repro.errors.ParallelTaskError` carrying
        the site, task index and executions made, with the last
        exception as ``__cause__``.

        Args:
            cost_hint: estimated total flops-equivalents for the whole
                call; below the context threshold the map runs serially
                (recorded as a serial fallback). ``None`` means "assume
                expensive" and bypasses the gate.
            site: label for the ledger and the fault site.
            serial: a whole-call kernel cheaper than the per-item tasks.
                When the call does not fan out the engine runs it
                *instead of* the tasks (no fault site, no retry); either
                side is timed here and recorded as ``len(items)`` tasks,
                so the feedback store compares like with like.
            combine: reduces a fan-out's per-item results to what
                ``serial`` returns (applied after the clock stops).

        Returns the per-item results, or — given ``serial`` and
        ``combine`` — the kernel's value whichever side ran.
        """
        tasks = list(items)
        fan_out = self.should_parallelize(len(tasks), cost_hint, site=site)
        with span(
            "parallel.pmap",
            site=site,
            tasks=len(tasks),
            parallel=fan_out,
            workers=self.max_workers,
        ):
            start = time.perf_counter()
            work = None  # summed task time, once a fan-out has completed
            if fan_out:
                pool = self._pool()
                try:
                    futures = [
                        pool.submit(_timed_task, fn, site, i, item)
                        for i, item in enumerate(tasks)
                    ]
                except RuntimeError:
                    # The pool was shut down between _pool() and submit
                    # (a concurrent shutdown): recover by running serially.
                    self.stats.count(site, "recovered_tasks", len(tasks))
                    get_registry().inc("parallel.pool_lost_recoveries")
                else:
                    results, work = self._gather(fn, tasks, site, futures)
            if work is None:
                results = serial() if serial is not None else [
                    self._attempt(fn, item, i, site)
                    for i, item in enumerate(tasks)
                ]
            wall = time.perf_counter() - start
            self._record(
                site, len(tasks), work is not None, wall,
                wall if work is None else work,
            )
        if work is not None and combine is not None:
            return combine(results)
        return results

    def _gather(
        self, fn: Callable[[T], R], tasks: list[T], site: str, futures: list
    ) -> tuple[list[R], float]:
        """Results in task order plus the summed per-task time."""
        results = []
        work = 0.0
        for i, future in enumerate(futures):
            try:
                dt, value = future.result(timeout=self.task_timeout)
            except Exception as exc:
                restart = time.perf_counter()
                value = self._attempt(fn, tasks[i], i, site, exc)
                dt = time.perf_counter() - restart
            results.append(value)
            work += dt
        return results, work

    def _attempt(
        self,
        fn: Callable[[T], R],
        item: T,
        index: int,
        site: str,
        failed: Exception | None = None,
    ) -> R:
        """Run one task on the caller until it succeeds or gives up.

        The one attempt loop. ``failed`` is what gathering the pooled
        first execution raised. A timeout marks a straggler: the slow
        execution is abandoned (its result, if it ever arrives, is
        discarded) and this is its backup copy — deterministic fns make
        that exact — entering, like the serial and pool-lost paths, with
        no execution spent. Anything else is one spent, failed
        execution. A failure is retried only while the policy calls it
        transient and attempts remain, after the deterministic
        per-``(site, index)`` backoff.
        """
        policy = self.retry_policy
        backup = isinstance(failed, FutureTimeoutError)
        if backup:
            self.stats.count(site, "stragglers")
            failed = None
        attempts = 0 if failed is None else 1
        while True:
            if failed is not None:
                self.stats.count(site, "task_failures")
                if (
                    policy is None
                    or not policy.is_retryable(failed)
                    or attempts >= policy.max_attempts
                ):
                    raise ParallelTaskError(site, index, attempts) from failed
                self.stats.count(site, "retries")
                policy.sleep(policy.delay(attempts, site, index))
            attempts += 1
            try:
                value = _guarded_task(fn, site, index, item)
            except Exception as exc:
                failed = exc
                continue
            if failed is not None or backup:
                self.stats.count(site, "recovered_tasks")
            return value

    def _record(
        self, site: str, tasks: int, parallel: bool, wall: float, work: float
    ) -> None:
        with self._lock:
            self.stats.observe(site, tasks, parallel, wall, work)
        registry = get_registry()
        if parallel:
            registry.observe("parallel.wall_time_s", wall)
            registry.observe("parallel.task_time_s", work)
            if wall > 0:
                registry.observe("parallel.utilization", work / wall)
        store = _feedback.active_store()
        if store is not None:
            try:
                store.observe_site(site, tasks, parallel, wall, work)
            except Exception:
                registry.inc("feedback.observe_errors")


# ----------------------------------------------------------------------
# Deterministic reductions
# ----------------------------------------------------------------------
def merge_tree(merge: Callable[[T, T], T], items: Sequence[T]) -> T:
    """Pairwise log-depth reduction with a fixed association.

    ``merge_tree(m, [a, b, c, d])`` computes ``m(m(a, b), m(c, d))`` —
    the combine shape of a partitioned engine. Requires an associative
    ``merge``; item order is never permuted, so non-commutative merges
    are safe too.
    """
    level = list(items)
    if not level:
        raise ReproError("merge_tree needs at least one item")
    leaves = len(level)
    depth = 0
    while len(level) > 1:
        paired = [
            merge(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
        depth += 1
    registry = get_registry()
    registry.inc("parallel.merge_tree.calls")
    registry.inc("parallel.merge_tree.leaves", leaves)
    registry.observe("parallel.merge_tree.depth", depth)
    return level[0]


def resolve_context(parallel: ParallelContext | None) -> ParallelContext | None:
    """Check the ``parallel=`` argument call sites accept: ``None``
    (serial) or the :class:`ParallelContext` whose pool runs the work."""
    if parallel is None or isinstance(parallel, ParallelContext):
        return parallel
    raise ReproError(
        f"parallel= takes a ParallelContext or None, got {parallel!r}"
    )


def dispatch(
    ctx: ParallelContext | None,
    fn: Callable[[T], R],
    items: Sequence[T],
    cost_hint: float | None = None,
    site: str = "pmap",
) -> list[R]:
    """The hand-off a data-parallel call site makes: ``fn`` over ``items``.

    Without a context, or with fewer than two items, this is the plain
    loop — no gate, no fault site, no ledger entry. Otherwise the
    engine decides (:meth:`ParallelContext.pmap`).
    """
    if ctx is None or len(items) < 2:
        return [fn(item) for item in items]
    return ctx.pmap(fn, items, cost_hint=cost_hint, site=site)
