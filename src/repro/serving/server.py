"""The per-shard executor: registry-backed endpoints and the request path.

The lifecycle layer ends at ``registry.deploy()``; the public server is
:class:`~repro.serving.fabric.ShardedServer`, each of whose shards runs
one :class:`ModelServer`. Its named *endpoints* each:

* resolve their model through the :class:`~repro.lifecycle.ModelRegistry`
  **by alias** (``"prod"``, or ``"canary"`` for the candidate), so a
  fleet promote is an atomic pointer swap — in-flight requests finish
  on the version they resolved;
* route a deterministic hash-slice of request keys to the canary
  (:class:`~repro.serving.ring.CanaryRouter`);
* score through a **compiled affine scorer** that evaluates the SQL
  scoring query's expression (the oracle in ``tests/sql_scoring.py``)
  in the same order, so a prediction is bit-identical whether served
  alone, in a batch of 64, or by that query;
* memoize predictions in a versioned
  :class:`~repro.serving.cache.PredictionCache` (invalidated on
  promote), and queue a call's misses as **one block per model
  version**, drained in batches whose count is row-exact;
* shed load at admission (bounded queue) and honour per-request
  deadlines, under the :func:`~repro.resilience.fault_point` site
  ``serving.admission``; the batcher bounds scoring with
  ``MAX_CONCURRENCY`` tokens behind ``serving.score`` (recovered by
  this server's :class:`~repro.resilience.RetryPolicy`).

Rollout (promote, its gate, canary) is the fleet's; the executor only
serves, and drops an endpoint's scorers and cache when told to
(:meth:`ModelServer.invalidate`). Every count is a
:class:`~repro.obs.Ledger` write summed per call — ``serving.*`` here,
``serving.cache.*`` and ``serving.batcher.*`` in their modules — and a
call's latency is one observation the registry pulls as
``serving.latency_ms``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

import numpy as np

from ..errors import (
    DeadlineExceededError, InjectedFault, LoadShedError, ServingError,
)
from ..lifecycle.registry import ModelRegistry, ModelVersion
from ..ml.losses import sigmoid
from ..obs import Counted, Histogram, Ledger
from ..resilience import RetryPolicy, active_chaos, fault_point
from .batcher import MicroBatcher
from .cache import PredictionCache
from .ring import CanaryRouter

#: scorer outputs an endpoint can serve for linear models.
_OUTPUTS = ("margin", "proba", "label", "predict")

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
    sequential, unlike the pairwise ``sum``): the evaluation order of the
    engine expression ``tests/sql_scoring.py`` builds, whatever the batch
    size. So E22's batched prediction is bit-identical to the row scored
    alone and to SQL scoring of the same model. A batch wider than the
    model is read in its leading ``len(coef_)`` columns; a narrower one
    raises ``ServingError``.
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
    """One served route: config, queue, cache, router, and its ledger.

    Request threads share every field. ``canary`` and ``router`` take no
    lock (the fleet replaces each whole; a call reads them once); the
    rest guard themselves: ``batcher`` and ``cache`` by their ``_lock``
    (the batcher's scoring tokens in their C-level queue), ``counts``
    and ``latency`` by writing one cell per thread, with no lock.
    """

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
        # the deployed alias serves until set_canary routes a share away
        self.canary: str | None = None
        self.router = CanaryRouter(0.0, canary_seed)
        self.output = output
        self.batcher = MicroBatcher(
            name,
            max_batch_size=max_batch_size,
            queue_capacity=queue_capacity,
            clock=clock,
        )
        self.cache: PredictionCache | None = (
            PredictionCache(cache_capacity) if cache_enabled else None
        )
        self.counts = Ledger("serving", (
            "requests", "shed", "deadline_exceeded",
            "stable_requests", "canary_requests",
        ))
        self.latency = Histogram("serving.latency_ms", pulled=True)

    def stats(self) -> dict:
        """One endpoint's serving ledger as a plain dict."""
        cache_stats = self.cache.stats if self.cache is not None else None
        latency = self.latency.as_dict()  # since the last registry reset
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
                field: latency.get(field, 0.0)
                for field in ("count", "mean", "p50", "p95", "p99", "max")
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
        #: compiled kernels by (endpoint, version); ``_scorers_lock``
        #: guards every write, and a rebuild swaps in a new dict, so the
        #: request path reads it with one lock-free ``.get``
        self._scorers: dict[tuple[str, int], Callable] = {}
        self._scorers_lock = threading.Lock()

    def create_endpoint(self, name: str, model_name: str, **config) -> Endpoint:
        """Register a served route; see :class:`Endpoint` for knobs."""
        if name in self._endpoints:
            raise ServingError(f"endpoint {name!r} already exists")
        self.registry.versions(model_name)  # validates the model exists
        endpoint = Endpoint(name, model_name, clock=self._clock, **config)
        endpoint.batcher.retry = self.retry
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
        """Drop an endpoint's compiled scorers and cached predictions
        (the fleet's promote and shard revive); returns the entries
        dropped."""
        endpoint = self.endpoint(name)
        with self._scorers_lock:
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
            scorer = _build_scorer(entry.model, endpoint.output)
            with self._scorers_lock:
                scorer = self._scorers.setdefault(ident, scorer)
        return scorer

    def _serve(
        self,
        name: str,
        rows: np.ndarray,
        keys: Sequence[object] | None,
        closed_loop: bool,
        deadline_at: float | None,
    ) -> np.ndarray:
        """The request path, written once, over an ``(n, d)`` batch. Per
        row: under a chaos plan it crosses ``serving.admission`` (a fault
        sheds it), it draws its canary bucket, and its bytes key it. Per
        call: the cache is probed and filled under one lock each, each
        model version's misses are queued as one fresh block and drained
        on the caller's thread, a late block is refused, and the request
        counts are applied in one ``finally`` (a shed at row ``i`` counts
        ``i + 1`` requests, as ``i + 1`` single calls would). A full
        queue sheds the open-loop ``predict``; the closed-loop
        ``predict_many`` drains it first. ``deadline_at`` is the absolute
        budget the fleet fixed at its door (None: none); a miss reports
        it less the call's start, in ms.
        """
        endpoint = self.endpoint(name)
        counts, cache = endpoint.counts, endpoint.cache
        batcher, capacity = endpoint.batcher, endpoint.batcher.queue_capacity
        start = self._clock()
        stable = self.registry.resolve(
            endpoint.model_name, ModelRegistry.DEPLOYED_ALIAS
        )
        n = len(rows)
        versions = [stable.version] * n
        canary = None
        if endpoint.canary is not None and keys is not None:
            canary = self.registry.resolve(
                endpoint.model_name, endpoint.canary
            )
            routes_to_canary = endpoint.router.routes_to_canary
        chaos = active_chaos() is not None
        asked = canaried = refused = shed = 0
        try:
            decided = chaos or canary is not None  # else no row decides
            for asked in range(1, n + 1) if decided else ():
                if chaos:
                    try:
                        fault_point("serving.admission", key=name)
                    except InjectedFault as fault:
                        refused = 1
                        raise LoadShedError(
                            name, batcher.depth(), capacity, reason="chaos"
                        ) from fault
                key = keys[asked - 1] if canary is not None else None
                if key is not None and routes_to_canary(key):
                    versions[asked - 1] = canary.version
                    canaried += 1
            asked = n
            if cache is not None:
                # the whole row, not a 32-bit hash: a hit must be this row
                data = rows.tobytes()
                row_keys = (
                    [data] * n
                    if n < 2 or not data
                    else np.frombuffer(data, f"V{len(data) // n}").tolist()
                )
                values = cache.get(versions, row_keys)
            else:
                values = [None] * n
            missing = values.count(None)
            missed = None  # the missed rows; None: every row
            if 0 < missing < n:
                missed = [i for i, value in enumerate(values) if value is None]
            # (version, its missed rows): one unless a canary took some
            groups = [(stable.version, missed)] if missing else []
            if canaried and missing:
                by_version: dict[int, list[int]] = {}
                for i in range(n) if missed is None else missed:
                    by_version.setdefault(versions[i], []).append(i)
                groups = list(by_version.items())
            handles = []  # (the rows it answers, its handle)
            for version, picked in groups:
                block = rows.copy() if picked is None else rows[picked]
                scorer = self._scorer_for(
                    endpoint, stable if version == stable.version else canary
                )
                if closed_loop and batcher.depth() + len(block) > capacity:
                    batcher.flush()
                try:
                    handles.append((picked, batcher.submit(
                        block, scorer, version, deadline_at
                    )))
                except LoadShedError:
                    shed = 1
                    raise
            if handles:
                batcher.flush()
            # a miss is NaN until scored; a lone all-miss block is the call's
            out = np.array(values, np.float64) if missing < n else None
            if out is None and len(handles) != 1:
                out = np.empty(n)
            for picked, handle in handles:
                timeout = None if deadline_at is None else max(
                    0.0, deadline_at - self._clock()
                )
                try:
                    scores = handle.wait(timeout)
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
                    raise DeadlineExceededError(
                        name, (deadline_at - start) * 1000.0
                    )
                if out is None:
                    out = scores
                else:
                    out[picked] = scores
            if missing and cache is not None:
                scored = out if missed is None else out[missed]
                if missed is not None:
                    versions = [versions[i] for i in missed]
                    row_keys = [row_keys[i] for i in missed]
                cache.put(versions, row_keys, scored.tolist())
        finally:
            cell = counts.cell()  # field -> [count, updates], as inc adds
            if asked:
                slot = cell["requests"]
                slot[0] += asked
                slot[1] += 1
            # a refused row was never routed
            stable_rows = asked - refused - canaried
            if stable_rows:
                slot = cell["stable_requests"]
                slot[0] += stable_rows
                slot[1] += 1
            if canaried:
                slot = cell["canary_requests"]
                slot[0] += canaried
                slot[1] += 1
            if refused or shed:
                slot = cell["shed"]
                slot[0] += 1
                slot[1] += 1
        endpoint.latency.observe((self._clock() - start) * 1000.0)
        return out

    def predict(
        self,
        name: str,
        row: np.ndarray,
        key: object | None = None,
        deadline_at: float | None = None,
    ) -> float:
        """Serve one prediction through the full path under the absolute
        ``deadline_at`` on this server's clock."""
        row = _as_float(row, "predict", "row", 1)
        out = self._serve(name, row[None], (key,), False, deadline_at)
        return out.item(0)

    def predict_many(
        self,
        name: str,
        rows: np.ndarray,
        keys: Sequence[object] | None = None,
        deadline_at: float | None = None,
    ) -> np.ndarray:
        """Serve a stream of requests: each row keeps its own decisions
        (admission, canary bucket, cache key) and counts as one request,
        while the bookkeeping is the call's and its misses are scored
        in vectorized batches, one kernel call per ``max_batch_size``
        rows (the speedup E22 measures)."""
        rows = _as_float(rows, "predict_many", "batch", 2)
        if keys is not None and len(keys) != rows.shape[0]:
            raise ServingError("one key per row required")
        return self._serve(name, rows, keys, True, deadline_at)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-endpoint serving ledgers, keyed by endpoint name."""
        return {
            name: endpoint.stats()
            for name, endpoint in sorted(self._endpoints.items())
        }
