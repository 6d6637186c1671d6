"""Dynamic micro-batching: amortize per-request overhead into one matvec.

Single-row scoring pays the full Python toll per request — admission,
hashing, dispatch, a size-1 kernel. The batcher coalesces queued
requests into vectorized batches of at most ``max_batch_size``, drained
on the caller's thread by :meth:`MicroBatcher.flush`.

Correctness contract (property-tested):

* **Own answer** — each response is computed from exactly its request's
  row by its request's scorer; grouping inside a batch cannot swap
  answers between requests.
* **FIFO per endpoint** — requests are drained in arrival order, and
  one flush completes its batches in that order.
* **Batch-size invariance** — scorers built by the server accumulate
  along each row in a fixed order, so a row scored in a batch of 64 is
  bit-identical to the same row scored alone (E22 asserts this).
* **Every popped request completes** — with its answer or with a typed
  error; nothing a batch can contain (rows of different widths, a
  scorer returning the wrong shape) escapes the drain.

The queue is bounded: :meth:`MicroBatcher.submit` sheds load by raising
:class:`~repro.errors.LoadShedError` instead of growing without bound —
admission control happens at enqueue, not after work was invested.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

import numpy as np

from ..errors import DeadlineExceededError, LoadShedError, ServingError
from ..obs import Counted, Ledger, get_registry


#: guards installing a handle's event. Shared by every handle: it is
#: taken only by a waiter that arrived before completion, for one check.
_EVENT_INSTALL = threading.Lock()


class PendingRequest:
    """One queued request and its completion handle.

    ``done`` flips exactly at completion. No ``threading.Event`` exists
    until a waiter arrives before that (a lone caller's flush completes
    its requests before it waits). The handshake needs no lock between
    the two sides: the completer publishes ``done`` *before* looking for
    an event, a waiter publishes the event *before* re-reading ``done``,
    so whichever runs second sees the other's write.
    """

    __slots__ = (
        "row", "scorer", "version", "deadline_at", "done", "_event",
        "result", "error",
    )

    def __init__(
        self,
        row: np.ndarray,
        scorer: Callable[[np.ndarray], np.ndarray],
        version: int,
        deadline_at: float | None,
    ):
        self.row = row
        self.scorer = scorer
        self.version = version
        self.deadline_at = deadline_at
        self.done = False
        self._event = None
        self.result: float | None = None
        self.error: BaseException | None = None

    def _complete(self) -> None:
        """Publish ``result`` / ``error`` (already written) to waiters."""
        self.done = True
        event = self._event
        if event is not None:
            event.set()

    def wait(self, timeout: float | None = None) -> float:
        """Block until scored; raises the request's failure if it has one.

        Returns the prediction. ``timeout`` elapsing raises ``TimeoutError``
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
    """Bounded FIFO request queue drained in vectorized batches.

    Args:
        name: endpoint name (error messages, metric labels).
        max_batch_size: largest batch one drain scores.
        queue_capacity: admission bound; a full queue sheds new requests.
        clock: injectable monotonic clock.

    Callers drain it inline with :meth:`flush`. Concurrent callers each
    submit, flush and wait: one caller's flush may score another's
    request, which :meth:`PendingRequest.wait` then picks up.
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
        self._queue: deque[PendingRequest] = deque()
        self._lock = threading.Lock()
        # ``shed`` is queue-full only: a subset of the endpoint's
        # ``serving.shed``, so it is counted under the batcher's own prefix
        self.counts = Ledger(
            "serving.batcher", ("batches", "batched_requests", "shed")
        )

    # ------------------------------------------------------------------
    def submit(
        self,
        row: np.ndarray,
        scorer: Callable[[np.ndarray], np.ndarray],
        version: int,
        deadline_at: float | None = None,
    ) -> PendingRequest:
        """Enqueue one request; sheds (raises) when the queue is full."""
        with self._lock:
            depth = len(self._queue)
            if depth >= self.queue_capacity:
                self.counts.inc("shed")
                raise LoadShedError(self.name, depth, self.queue_capacity)
            pending = PendingRequest(row, scorer, version, deadline_at)
            self._queue.append(pending)
        return pending

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    def _drain_one(self) -> list[PendingRequest]:
        with self._lock:
            batch = [
                self._queue.popleft()
                for _ in range(min(self.max_batch_size, len(self._queue)))
            ]
        return batch

    def _score_batch(self, batch: list[PendingRequest]) -> None:
        """Score one drained batch and complete every request in it.

        Requests are grouped by model version (a canary split can mix
        versions in one arrival window); each group is scored with its
        own scorer in one vectorized call and its answers (or its one
        failure) are written onto the requests. Every popped request is
        then completed, in FIFO order regardless of grouping.
        """
        now = self._clock()
        groups: dict[int, list[PendingRequest]] = {}
        for pending in batch:
            if pending.deadline_at is not None and now > pending.deadline_at:
                # Expired while queued: fail it without spending a score
                # (the server re-raises it with the caller's budget).
                pending.error = DeadlineExceededError(self.name, 0.0)
            else:
                groups.setdefault(pending.version, []).append(pending)
        for group in groups.values():
            try:
                scores = self._score_group(group)
            except Exception as exc:  # noqa: BLE001 - delivered per request
                for pending in group:
                    pending.error = exc
            else:
                for pending, score in zip(group, scores):
                    pending.result = score
        self.counts.inc("batches")
        self.counts.inc("batched_requests", len(batch))
        get_registry().observe("serving.batch_size", len(batch))
        for pending in batch:
            pending._complete()

    def _score_group(self, group: list[PendingRequest]) -> list[float]:
        """One scorer call over one version's rows: a fresh C-contiguous
        ``(n, d)`` array in, one float per row out."""
        try:
            rows = np.array([pending.row for pending in group])
        except ValueError as exc:
            shapes = sorted({np.shape(pending.row) for pending in group})
            raise ServingError(
                f"rows of one batch differ in shape: {shapes}"
            ) from exc
        scorer = group[0].scorer
        kwargs = {}
        if getattr(scorer, "accepts_deadline", False):
            # Retrying past the tightest deadline in the group
            # cannot help anyone; cap the retry budget by it.
            deadlines = [
                pending.deadline_at
                for pending in group
                if pending.deadline_at is not None
            ]
            if deadlines:
                kwargs["deadline_at"] = min(deadlines)
        scores = np.asarray(scorer(rows, **kwargs), dtype=np.float64)
        if scores.shape != (len(group),):
            raise ServingError(
                f"scorer returned shape {scores.shape} for "
                f"{len(group)} rows"
            )
        return scores.tolist()

    def flush(self) -> int:
        """Drain the whole queue inline in FIFO batches; returns requests
        completed."""
        completed = 0
        while True:
            batch = self._drain_one()
            if batch:
                self._score_batch(batch)
                completed += len(batch)
            if len(batch) < self.max_batch_size:
                break  # a short batch emptied the queue: no second look
        return completed
