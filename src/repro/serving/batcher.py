"""Dynamic micro-batching: amortize per-request overhead into one matvec.

The batcher queues *blocks* (the server submits a call's cache misses
as one block per model version) and drains them on the caller's thread
(:meth:`MicroBatcher.flush`) in vectorized batches. Capacity, depth and
batches count rows: a flush scores the queued rows in batches of
``max_batch_size``, cutting a block where a batch ends, so the batch
count is the one a queue of single rows would report.

Correctness contract (property-tested):

* **Own answer** — each row's response is computed from exactly that
  row by its block's scorer; grouping cannot swap answers.
* **FIFO per endpoint** — rows are drained in arrival order, and one
  flush completes its batches in that order.
* **Batch-size invariance** — the server's scorers accumulate along
  each row in a fixed order, so a row scored in a batch of 64 is
  bit-identical to the row scored alone (E22 asserts this).
* **Every taken block completes** — with its answers or a typed error;
  nothing a batch can contain (rows of different widths, a scorer
  returning the wrong shape) escapes the drain.

The queue is bounded: :meth:`MicroBatcher.submit` sheds load at enqueue
by raising :class:`~repro.errors.LoadShedError`; a batch's version group
is one kernel call under one of ``MAX_CONCURRENCY`` scoring tokens.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable

import numpy as np

from ..errors import DeadlineExceededError, LoadShedError, ServingError
from ..obs import Counted, Ledger
from ..resilience import RetryPolicy, resilient_call

#: scorer calls one endpoint runs at a time.
MAX_CONCURRENCY = 4

#: guards installing a handle's event. Shared by every handle: it is
#: taken only by a waiter that arrived before completion, for one check.
_EVENT_INSTALL = threading.Lock()


class PendingRequest:
    """One queued block of rows and its completion handle.

    ``done`` flips exactly at completion. No ``threading.Event`` exists
    until a waiter arrives before that. The handshake needs no lock: the
    completer publishes ``done`` *before* looking for an event, a waiter
    publishes the event *before* re-reading ``done``, so whichever runs
    second sees the other's write.
    """

    __slots__ = (
        "rows", "scorer", "version", "deadline_at", "done", "_event",
        "size", "result", "error",
    )

    def __init__(
        self,
        rows: np.ndarray,
        scorer: Callable[[np.ndarray], np.ndarray],
        version: int,
        deadline_at: float | None,
    ):
        self.rows = rows
        self.scorer = scorer
        self.version = version
        self.deadline_at = deadline_at
        self.done = False
        self._event = None
        self.size = len(rows)
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None

    def _complete(self) -> None:
        """Publish ``result`` / ``error`` (already written) to waiters."""
        self.done = True
        event = self._event
        if event is not None:
            event.set()

    def wait(self, timeout: float | None = None) -> np.ndarray:
        """Block until scored; returns one prediction per row, or raises
        the block's failure. ``timeout`` elapsing raises ``TimeoutError``
        (the server maps it to a deadline error with endpoint context).
        """
        if not self.done:
            with _EVENT_INSTALL:  # two early waiters share one event
                if self._event is None:
                    self._event = threading.Event()
            if not self.done and not self._event.wait(timeout):
                raise TimeoutError("prediction not ready within timeout")
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class MicroBatcher(Counted):
    """Bounded FIFO queue of row blocks drained in vectorized batches.

    Args:
        name: endpoint name (error messages, metric labels).
        max_batch_size: most rows one drain scores.
        queue_capacity: admission bound, in rows.
        clock: injectable monotonic clock.

    Each caller submits, drains inline with :meth:`flush` and waits; a
    concurrent caller's flush may score its block for it. ``retry``
    (the owning server's policy; None = fail fast) recovers scoring.
    """

    def __init__(
        self,
        name: str,
        max_batch_size: int = 64,
        queue_capacity: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        if queue_capacity < 1:
            raise ServingError("queue_capacity must be >= 1")
        self.name = name
        self.max_batch_size = max_batch_size
        self.queue_capacity = queue_capacity
        self._clock = clock
        self._lock = threading.Lock()
        #: queued blocks, oldest first; guarded by ``_lock``
        self._queue: deque[PendingRequest] = deque()
        #: rows in ``_queue``; guarded by ``_lock``
        self._depth = 0
        self.retry: RetryPolicy | None = None
        #: one token per scorer call in flight: a C-level queue's get and
        #: put cost ~1/10 of a pure-Python ``threading.Semaphore`` pass
        self.tokens: queue.SimpleQueue = queue.SimpleQueue()
        for token in range(MAX_CONCURRENCY):
            self.tokens.put(token)
        # ``shed`` is queue-full only (a subset of the endpoint's
        # ``serving.shed``, so its own prefix)
        self.counts = Ledger(
            "serving.batcher", ("batches", "batched_requests", "shed")
        )

    # ------------------------------------------------------------------
    def submit(
        self,
        rows: np.ndarray,
        scorer: Callable[[np.ndarray], np.ndarray],
        version: int,
        deadline_at: float | None = None,
    ) -> PendingRequest:
        """Enqueue one ``(n, d)`` block of one version's rows; sheds
        (raises) when its rows overfill a non-empty queue (an empty one
        takes any block: its caller drains it inline)."""
        pending = PendingRequest(rows, scorer, version, deadline_at)
        if not pending.size:
            raise ServingError("a queued block needs at least one row")
        with self._lock:
            depth = self._depth
            if depth and depth + pending.size > self.queue_capacity:
                self.counts.inc("shed")
                raise LoadShedError(self.name, depth, self.queue_capacity)
            self._queue.append(pending)
            self._depth = depth + pending.size
        return pending

    def depth(self) -> int:
        """Rows queued and not yet taken by a flush."""
        with self._lock:
            return self._depth

    # ------------------------------------------------------------------
    def _score_batch(self, pieces: list[tuple], rows: int) -> None:
        """Score one batch, one scorer call per model version in it (a
        canary split mixes versions), then complete each block whose last
        rows it held, in FIFO order regardless of grouping."""
        now = None  # read once, and only for a batch holding a deadline
        groups: dict[int, list[tuple]] = {}
        for piece in pieces:
            entry = piece[0]
            if entry.deadline_at is not None:
                now = self._clock() if now is None else now
                if now > entry.deadline_at:  # expired while queued
                    entry.error = DeadlineExceededError(self.name, 0.0)
                    continue
            groups.setdefault(entry.version, []).append(piece)
        for group in groups.values():
            self._score_group(group)
        cell = self.counts.cell()  # field -> [count, updates]
        batches, batched = cell["batches"], cell["batched_requests"]
        batches[0] += 1
        batches[1] += 1
        batched[0] += rows
        batched[1] += 1
        for entry, _, hi in pieces:
            if hi == entry.size:
                entry._complete()

    def _score_group(self, group: list[tuple]) -> None:
        """One scorer call over one version's pieces — a fresh C-contiguous
        ``(n, d)`` array in (a lone whole block as submitted, else the rows
        joined), under a token and across ``serving.score`` — written to
        each block's own result, or its failure."""
        entry, lo, hi = group[0]
        # Retrying past the tightest deadline in the group cannot help
        # anyone; cap the retry budget by it.
        deadline = entry.deadline_at
        try:
            rows = entry.rows if hi - lo == entry.size else entry.rows[lo:hi]
            if len(group) > 1:
                deadline = min((e.deadline_at for e, _, _ in group
                                if e.deadline_at is not None), default=None)
                try:
                    rows = np.concatenate([e.rows[a:b] for e, a, b in group])
                except ValueError as exc:
                    shapes = sorted({e.rows.shape[1:] for e, _, _ in group})
                    raise ServingError(
                        f"rows of one batch differ in shape: {shapes}"
                    ) from exc
            token = self.tokens.get()  # blocks while MAX_CONCURRENCY score
            try:
                scores = resilient_call(
                    lambda: entry.scorer(rows), site="serving.score",
                    key=self.name, retry=self.retry, deadline_at=deadline,
                )
            finally:
                self.tokens.put(token)
            scores = np.asarray(scores, np.float64)
            if scores.shape != (len(rows),):
                raise ServingError(
                    f"scorer returned shape {scores.shape} for "
                    f"{len(rows)} rows"
                )
        except Exception as exc:  # noqa: BLE001 - delivered per block
            for e, _, _ in group:
                e.error = exc
            return
        if len(group) == 1 and hi - lo == entry.size:
            entry.result = scores  # this call scored the block alone
            return
        at = 0
        for e, a, b in group:
            if e.result is None:
                e.result = np.empty(e.size)
            e.result[a:b] = scores[at:at + b - a]
            at += b - a

    def _take(self, carry: tuple | None) -> tuple[list, int, tuple | None]:
        """The next batch of ``(entry, lo, hi)`` pieces — the carried tail
        of a block this flush cut, then queued blocks, cutting the last —
        as ``(pieces, rows, tail)``: a cut block stays on this thread."""
        pieces, room = [], self.max_batch_size
        with self._lock:
            while room and (carry or self._queue):
                entry, lo = carry or (self._queue.popleft(), 0)
                if not lo:  # a block fresh off the queue
                    self._depth -= entry.size
                hi = min(entry.size, lo + room)
                carry = (entry, hi) if hi < entry.size else None
                pieces.append((entry, lo, hi))
                room -= hi - lo
        return pieces, self.max_batch_size - room, carry

    def flush(self) -> int:
        """Drain the queue inline, one FIFO batch at a time (concurrent
        flushes take batches side by side); returns the rows taken."""
        completed, carry = 0, None
        while True:
            pieces, rows, carry = self._take(carry)
            if rows:
                self._score_batch(pieces, rows)
                completed += rows
            if rows < self.max_batch_size:
                return completed  # a short batch emptied the queue
