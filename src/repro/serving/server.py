"""The per-shard executor: registry-backed endpoints and the request path.

The lifecycle layer ends at ``registry.deploy()``; the public server is
:class:`~repro.serving.fabric.ShardedServer` (one shard is a
single-node deployment). Each of its shards runs one
:class:`ModelServer`, which owns named *endpoints*, each of which:

* resolves its model through the :class:`~repro.lifecycle.ModelRegistry`
  **by alias** (``"prod"`` for stable traffic, ``"canary"`` for the
  candidate), so a fleet promote is an atomic pointer swap — in-flight
  requests finish on the version they resolved;
* routes a deterministic hash-slice of request keys to the canary
  (:class:`~repro.serving.ring.CanaryRouter` — bit-reproducible given
  the seed);
* scores through a **compiled affine scorer**: for linear models the
  endpoint evaluates the same column-accumulation expression a SQL
  scoring query evaluates in the engine (the oracle in
  ``tests/sql_scoring.py``), in the same order, so a prediction is
  bit-identical whether it was served alone, in a batch of 64, or by
  that query;
* memoizes predictions in a versioned
  :class:`~repro.serving.cache.PredictionCache` (invalidated on
  promote);
* sheds load at admission (bounded queue), bounds scoring concurrency
  with a pool of ``MAX_CONCURRENCY`` tokens a scorer call takes and
  returns in a ``finally``, and honours per-request deadlines — all under
  :func:`~repro.resilience.fault_point` sites (``serving.admission``,
  ``serving.score``) so chaos tests cover the serving path, with
  :class:`~repro.resilience.RetryPolicy` recovery on the scoring site.

The rollout decisions (promote, its gate, canary) are the fleet's; the
executor only serves, and drops an endpoint's scorers and cache when
the fleet says so (:meth:`ModelServer.invalidate`).

Every count is a :class:`~repro.obs.Ledger` write, summed per call
rather than written per row — the endpoint's ``serving.*`` counts here,
the cache's ``serving.cache.*`` and the batcher's ``serving.batcher.*``
in their own modules — next to the ``serving.latency_ms`` histograms
with p50/p95/p99.
"""

from __future__ import annotations

import queue
import time
from typing import Callable, Sequence

import numpy as np

from ..errors import (
    DeadlineExceededError,
    InjectedFault,
    LoadShedError,
    ServingError,
)
from ..lifecycle.registry import ModelRegistry, ModelVersion
from ..ml.losses import sigmoid
from ..obs import Counted, Histogram, Ledger, get_registry
from ..resilience import RetryPolicy, fault_point, resilient_call
from .batcher import MicroBatcher
from .cache import PredictionCache
from .ring import CanaryRouter

#: scorer outputs an endpoint can serve for linear models.
_OUTPUTS = ("margin", "proba", "label", "predict")


#: scorer calls one endpoint runs at a time.
MAX_CONCURRENCY = 4

#: rows the scoring kernel evaluates per step. A served batch (<= 64
#: rows) is one step with no Python loop; a taller input keeps its
#: temporaries O(_BLOCK_ROWS * d), so scoring a whole table in one call
#: (an offline oracle pass) costs a few hundred KB, not 2·n·d·8.
_BLOCK_ROWS = 1024


def compile_linear_scorer(
    model, output: str = "margin"
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a fitted linear model into a batch scoring kernel.

    The kernel evaluates ``((intercept + w0*X[:,0]) + w1*X[:,1]) + ...``
    as one running sum along each row (``np.add.accumulate`` is strictly
    sequential, unlike the pairwise ``sum``) — exactly the evaluation
    order of the engine expression ``linear_expression`` in
    ``tests/sql_scoring.py`` builds, and independent of the batch size. Two consequences
    E22 leans on: a batched prediction is bit-identical to the same row
    scored alone, and the online server agrees bit-for-bit with SQL
    scoring of the same model.

    A batch may be wider than the model: the kernel reads the leading
    ``len(coef_)`` columns. A narrower one raises ``ServingError``.
    """
    if not hasattr(model, "coef_"):
        raise ServingError(
            "compiled scoring needs a fitted linear model exposing "
            "coef_/intercept_ (use output='predict' for other models)"
        )
    weights = np.asarray(model.coef_, dtype=np.float64).ravel()
    intercept = float(model.intercept_)
    width = len(weights)

    def running_sums(block: np.ndarray) -> np.ndarray:
        terms = np.empty((len(block), width + 1), dtype=np.float64)
        terms[:, 0] = intercept
        np.multiply(weights, block, out=terms[:, 1:])
        return np.add.accumulate(terms, axis=1)[:, -1]

    def score(batch: np.ndarray) -> np.ndarray:
        if batch.ndim != 2 or batch.shape[1] < width:
            raise ServingError(
                f"batch of shape {batch.shape} is narrower than the "
                f"model's {width} weights"
            )
        if len(batch) <= _BLOCK_ROWS:  # every served batch: one block
            scores = running_sums(batch[:, :width])
        else:
            scores = np.empty(len(batch), dtype=np.float64)
            for lo in range(0, len(scores), _BLOCK_ROWS):
                scores[lo:lo + _BLOCK_ROWS] = running_sums(
                    batch[lo:lo + _BLOCK_ROWS, :width]
                )
        if output == "proba":
            return sigmoid(scores)
        if output == "label":
            return (sigmoid(scores) >= 0.5).astype(np.float64)
        return scores

    return score


def _as_float(values, door: str, what: str, ndim: int) -> np.ndarray:
    """A door's input as float64 of rank ``ndim``, else a ServingError."""
    try:
        values = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ServingError(f"{door} expects a numeric {what}: {exc}") from None
    if values.ndim != ndim:
        raise ServingError(
            f"{door} expects a {ndim}-D {what}, got shape {values.shape}"
        )
    return values


def _build_scorer(model, output: str) -> Callable[[np.ndarray], np.ndarray]:
    if output == "predict":
        if not hasattr(model, "predict"):
            raise ServingError("model has no predict(); pick another output")
        return lambda batch: np.asarray(model.predict(batch), dtype=np.float64)
    return compile_linear_scorer(model, output)


class Endpoint(Counted):
    """One served route: config, queue, cache, router, and its ledger."""

    def __init__(
        self,
        name: str,
        model_name: str,
        *,
        canary_seed: int = 0,
        output: str = "margin",
        max_batch_size: int = 64,
        queue_capacity: int = 1024,
        cache_enabled: bool = True,
        cache_capacity: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ):
        if output not in _OUTPUTS:
            raise ServingError(
                f"output must be one of {_OUTPUTS}, got {output!r}"
            )
        self.name = name
        self.model_name = model_name
        # the deployed alias serves until the fleet's set_canary routes
        # a share away
        self.canary: str | None = None
        self.router = CanaryRouter(0.0, canary_seed)
        self.output = output
        self._clock = clock
        self.batcher = MicroBatcher(
            name,
            max_batch_size=max_batch_size,
            queue_capacity=queue_capacity,
            clock=clock,
        )
        self.cache: PredictionCache | None = (
            PredictionCache(cache_capacity)
            if cache_enabled
            else None
        )
        #: one token per scorer call in flight: a C-level queue's get and
        #: put cost ~1/10 of a pure-Python ``threading.Semaphore`` pass
        self.tokens: queue.SimpleQueue = queue.SimpleQueue()
        for token in range(MAX_CONCURRENCY):
            self.tokens.put(token)
        self.counts = Ledger("serving", (
            "requests", "shed", "deadline_exceeded",
            "stable_requests", "canary_requests",
        ))
        self.latency = Histogram(f"serving.latency_ms.{name}")

    def stats(self) -> dict:
        """One endpoint's serving ledger as a plain dict."""
        cache_stats = self.cache.stats if self.cache is not None else None
        return {
            "endpoint": self.name,
            "model": self.model_name,
            **self.counts.as_dict(),
            "canary_fraction": self.router.fraction,
            "batches": self.batcher.batches,
            "batched_requests": self.batcher.batched_requests,
            "mean_batch_size": (
                self.batcher.batched_requests / self.batcher.batches
                if self.batcher.batches
                else 0.0
            ),
            "cache": (
                cache_stats.as_dict() | {"hit_ratio": cache_stats.hit_ratio}
                if cache_stats is not None
                else None
            ),
            "latency_ms": {
                "count": self.latency.count,
                "mean": self.latency.mean,
                "p50": self.latency.percentile(50.0),
                "p95": self.latency.percentile(95.0),
                "p99": self.latency.percentile(99.0),
                "max": self.latency.max if self.latency.count else None,
            },
        }


class ModelServer:
    """One shard's executor over a :class:`ModelRegistry`: its endpoints
    and the request path. :class:`~repro.serving.ShardedServer` builds
    one per shard and owns every rollout decision.

    Args:
        registry: the model registry endpoints resolve through.
        retry: recovery policy for the ``serving.score`` fault site
            (None = fail fast).
        clock: injectable monotonic clock shared by queues and caches.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        retry: RetryPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.registry = registry
        self.retry = retry
        self._clock = clock
        self._endpoints: dict[str, Endpoint] = {}
        self._scorers: dict[tuple[str, int], Callable] = {}

    def create_endpoint(self, name: str, model_name: str, **config) -> Endpoint:
        """Register a served route; see :class:`Endpoint` for knobs."""
        if name in self._endpoints:
            raise ServingError(f"endpoint {name!r} already exists")
        self.registry.versions(model_name)  # validates the model exists
        endpoint = Endpoint(name, model_name, clock=self._clock, **config)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise ServingError(f"no endpoint named {name!r}")
        return endpoint

    def close(self) -> None:
        """Drain every endpoint's queue."""
        for endpoint in self._endpoints.values():
            endpoint.batcher.flush()

    def invalidate(self, name: str) -> int:
        """Drop an endpoint's compiled scorers and cached predictions;
        returns the number of cache entries dropped. The fleet calls
        this on every hosting replica after a promote, and on shard
        revive (epoch rejoin)."""
        endpoint = self.endpoint(name)
        self._scorers = {
            k: v for k, v in self._scorers.items() if k[0] != name
        }
        if endpoint.cache is None:
            return 0
        return endpoint.cache.invalidate()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _scorer_for(self, endpoint: Endpoint, entry: ModelVersion) -> Callable:
        ident = (endpoint.name, entry.version)
        scorer = self._scorers.get(ident)
        if scorer is None:
            base = _build_scorer(entry.model, endpoint.output)
            tokens = endpoint.tokens

            def scorer(
                batch: np.ndarray,
                deadline_at: float | None = None,
                _base=base,
            ) -> np.ndarray:
                token = tokens.get()  # blocks while MAX_CONCURRENCY score
                try:
                    return resilient_call(
                        lambda: _base(batch),
                        site="serving.score",
                        key=endpoint.name,
                        retry=self.retry,
                        deadline_at=deadline_at,
                    )
                finally:
                    tokens.put(token)

            # The batcher forwards each batch's tightest admission
            # deadline, so scoring retries never outlive their budget.
            scorer.accepts_deadline = True
            self._scorers[ident] = scorer
        return scorer

    def _serve(
        self,
        name: str,
        rows: Sequence[np.ndarray],
        keys: Sequence[object] | None,
        deadline_ms: float | None,
        closed_loop: bool,
        deadline_at: float | None = None,
    ) -> list[float]:
        """The request path, written once. What depends on the row is
        decided per row: every row crosses the ``serving.admission``
        site (an injected fault sheds it), draws its canary bucket while
        a canary is set, is keyed by its bytes and, on a cache miss, is
        enqueued; then the queue is drained on the caller's thread and
        each queued request waits out the call's budget, is
        refused if it came back late, and fills the cache. What does not
        is done once per call: the aliases resolve once, the cache is
        probed under one lock, and the request counts are plain ints
        applied in one ``finally`` on every exit path — so a shed at
        row ``i`` counts ``i + 1`` requests, as ``i + 1`` single calls
        would.

        A full queue sheds the open-loop ``predict`` request; the
        closed-loop ``predict_many`` caller is its own backpressure and
        drains the queue first — which door called decides, nothing else
        differs between them. A caller that already spent part of the
        budget (the fleet: quota, routing, failover) hands over the
        absolute ``deadline_at`` its clock started from; ``deadline_ms``
        is then only what the error reports.
        """
        endpoint = self.endpoint(name)
        counts, cache = endpoint.counts, endpoint.cache
        batcher = endpoint.batcher
        start = self._clock()
        if deadline_at is None and deadline_ms is not None:
            deadline_at = start + deadline_ms / 1000.0
        stable = self.registry.resolve(
            endpoint.model_name, ModelRegistry.DEPLOYED_ALIAS
        )
        versions = [stable.version] * len(rows)
        canary = None
        if endpoint.canary is not None and keys is not None:
            canary = self.registry.resolve(
                endpoint.model_name, endpoint.canary
            )
            routes_to_canary = endpoint.router.routes_to_canary
        row_keys: list[bytes] = []
        asked = canaried = refused = shed = 0
        try:
            for asked, row in enumerate(rows, 1):
                try:
                    fault_point("serving.admission", key=name)
                except InjectedFault as fault:
                    refused = 1
                    raise LoadShedError(
                        name, batcher.depth(), batcher.queue_capacity,
                        reason="chaos",
                    ) from fault
                if canary is not None:
                    key = keys[asked - 1]
                    if key is not None and routes_to_canary(key):
                        versions[asked - 1] = canary.version
                        canaried += 1
                if cache is not None:
                    # the whole row, not a 32-bit hash: a hit must be
                    # this row
                    row_keys.append(row.tobytes())
            out = (
                cache.get(versions, row_keys)
                if cache is not None
                else [None] * len(rows)
            )
            pendings: list[tuple] = []  # (row index, pending handle)
            for i, cached in enumerate(out):
                if cached is not None:
                    continue
                if closed_loop and batcher.depth() >= batcher.queue_capacity:
                    batcher.flush()
                version = versions[i]
                entry = stable if version == stable.version else canary
                try:
                    pending = batcher.submit(
                        rows[i], self._scorer_for(endpoint, entry), version,
                        deadline_at,
                    )
                except LoadShedError:
                    shed = 1
                    raise
                pendings.append((i, pending))
            if pendings:
                batcher.flush()
            for i, pending in pendings:
                timeout = (
                    None
                    if deadline_at is None
                    else max(0.0, deadline_at - self._clock())
                )
                try:
                    out[i] = pending.wait(timeout)
                    late = (
                        deadline_at is not None
                        and self._clock() > deadline_at
                    )
                except (TimeoutError, DeadlineExceededError):
                    late = True  # never scored, or expired in the queue
                if late:
                    # Computed or not, too late — a deadline is a client
                    # promise.
                    counts.inc("deadline_exceeded")
                    raise DeadlineExceededError(name, deadline_ms)
                if cache is not None:
                    cache.put(versions[i], row_keys[i], out[i])
        finally:
            if asked:
                counts.inc("requests", asked)
            # a refused row was never routed
            stable_rows = asked - refused - canaried
            if stable_rows:
                counts.inc("stable_requests", stable_rows)
            if canaried:
                counts.inc("canary_requests", canaried)
            if refused or shed:
                counts.inc("shed")
        elapsed_ms = (self._clock() - start) * 1000.0
        endpoint.latency.observe(elapsed_ms)
        get_registry().observe("serving.latency_ms", elapsed_ms)
        return out

    def predict(
        self,
        name: str,
        row: np.ndarray,
        key: object | None = None,
        deadline_ms: float | None = None,
        deadline_at: float | None = None,
    ) -> float:
        """Serve one prediction through the full path: admission, canary
        routing, cache, micro-batch queue, deadline."""
        row = _as_float(row, "predict", "row", 1)
        return self._serve(
            name, (row,), (key,), deadline_ms, False, deadline_at
        )[0]

    def predict_many(
        self,
        name: str,
        rows: np.ndarray,
        keys: Sequence[object] | None = None,
        deadline_ms: float | None = None,
        deadline_at: float | None = None,
    ) -> np.ndarray:
        """Serve a stream of requests through the micro-batcher.

        Each row keeps its own decisions (the admission crossing, the
        canary bucket, the cache key, the enqueue, the deadline) and
        counts as one request, but the call's bookkeeping — alias
        resolution, the cache lock, the ledger writes — is paid once,
        and the queue is drained in vectorized batches: one kernel call
        per ``max_batch_size`` rows, the speedup E22 measures. A row
        that finds the queue full triggers an inline drain instead of
        shedding (a closed-loop caller is its own backpressure).
        """
        rows = _as_float(rows, "predict_many", "batch", 2)
        if keys is not None and len(keys) != rows.shape[0]:
            raise ServingError("one key per row required")
        return np.array(
            self._serve(name, rows, keys, deadline_ms, True, deadline_at),
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-endpoint serving ledgers, keyed by endpoint name."""
        return {
            name: endpoint.stats()
            for name, endpoint in sorted(self._endpoints.items())
        }
