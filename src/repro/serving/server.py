"""Online model server: registry-backed endpoints with canary rollout.

The lifecycle layer ends at ``registry.deploy()``; this module is the
other half — the process that answers prediction requests. A
:class:`ModelServer` owns named *endpoints*, each of which:

* resolves its model through the :class:`~repro.lifecycle.ModelRegistry`
  **by alias** (``"prod"`` for stable traffic, ``"canary"`` for the
  candidate), so :meth:`promote` is an atomic pointer swap — in-flight
  requests finish on the version they resolved;
* routes a deterministic hash-slice of request keys to the canary
  (:class:`~repro.serving.ring.CanaryRouter` — bit-reproducible given
  the seed);
* scores through a **compiled affine scorer**: for linear models the
  endpoint evaluates the same column-accumulation expression
  ``indb.scoring`` deploys into the engine, in the same order, so a
  prediction is bit-identical whether it was served alone, in a batch of
  64, or by a SQL scoring query;
* memoizes predictions in a versioned
  :class:`~repro.serving.cache.PredictionCache` (invalidated on
  promote);
* sheds load at admission (bounded queue), bounds scoring concurrency,
  and honours per-request deadlines — all under
  :func:`~repro.resilience.fault_point` sites (``serving.admission``,
  ``serving.score``) so chaos tests cover the serving path, with
  :class:`~repro.resilience.RetryPolicy` recovery on the scoring site.

Every counted event is one :class:`~repro.obs.Ledger` write — the
endpoint's ``serving.*`` counts here, the cache's ``serving.cache.*``
and the batcher's ``serving.batcher.*`` in their own modules — next to
the ``serving.latency_ms`` / ``serving.batch_size`` histograms with
p50/p95/p99.
"""

from __future__ import annotations

import threading
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

#: rows the scoring kernel evaluates per step. Its temporaries are
#: O(_BLOCK_ROWS * d) however tall the input, so scoring a whole table in
#: one call (an offline oracle pass) costs a few hundred KB, not 2·n·d·8.
_BLOCK_ROWS = 1024


def compile_linear_scorer(
    model, output: str = "margin"
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a fitted linear model into a batch scoring kernel.

    The kernel evaluates ``((intercept + w0*X[:,0]) + w1*X[:,1]) + ...``
    as one running sum along each row (``np.add.accumulate`` is strictly
    sequential, unlike the pairwise ``sum``) — exactly the evaluation
    order of the :func:`repro.indb.scoring.linear_expression` the in-DB
    path deploys, and independent of the batch size. Two consequences
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

    def score(batch: np.ndarray) -> np.ndarray:
        if batch.ndim != 2 or batch.shape[1] < width:
            raise ServingError(
                f"batch of shape {batch.shape} is narrower than the "
                f"model's {width} weights"
            )
        scores = np.empty(batch.shape[0], dtype=np.float64)
        for lo in range(0, len(scores), _BLOCK_ROWS):
            block = batch[lo:lo + _BLOCK_ROWS, :width]
            terms = np.empty((len(block), width + 1), dtype=np.float64)
            terms[:, 0] = intercept
            terms[:, 1:] = weights * block
            scores[lo:lo + _BLOCK_ROWS] = np.add.accumulate(
                terms, axis=1
            )[:, -1]
        if output == "proba":
            return sigmoid(scores)
        if output == "label":
            return (sigmoid(scores) >= 0.5).astype(np.float64)
        return scores

    return score


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
        max_delay_ms: float = 2.0,
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
        self._clock = clock
        self.batcher = MicroBatcher(
            name,
            max_batch_size=max_batch_size,
            max_delay_ms=max_delay_ms,
            queue_capacity=queue_capacity,
            clock=clock,
        )
        self.cache: PredictionCache | None = (
            PredictionCache(cache_capacity)
            if cache_enabled
            else None
        )
        self.semaphore = threading.Semaphore(MAX_CONCURRENCY)
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
    """Embedded online-inference server over a :class:`ModelRegistry`.

    Typical session::

        registry.register("churn", model, params={...})
        server = ModelServer(registry)
        server.create_endpoint("churn-score", "churn", output="proba")
        server.promote("churn-score")            # latest -> "prod" alias
        p = server.predict("churn-score", x, key="user-42")
        server.set_canary("churn-score", version=2, fraction=0.1)

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
        self._gates: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Endpoint management
    # ------------------------------------------------------------------
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

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)

    def start(self, name: str) -> None:
        """Run the endpoint's batcher in a background worker thread."""
        self.endpoint(name).batcher.start()

    def close(self) -> None:
        """Stop every worker and drain every queue."""
        for endpoint in self._endpoints.values():
            if endpoint.batcher.running:
                endpoint.batcher.stop()
            else:
                endpoint.batcher.flush()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Rollout operations
    # ------------------------------------------------------------------
    def set_promotion_gate(self, name: str, gate) -> None:
        """Install a promotion gate (e.g. :class:`repro.features.DriftGate`)
        on an endpoint; ``gate.authorize(self, name, entry)`` runs before
        every :meth:`promote` and may raise
        :class:`~repro.errors.PromotionHeldError` to refuse it."""
        self.endpoint(name)  # validates the endpoint exists
        self._gates[name] = gate

    def promote(self, name: str, version: int | None = None) -> ModelVersion:
        """Deploy a version (default: latest registered) to the stable
        alias and invalidate the endpoint's cached predictions.

        An installed promotion gate authorizes the candidate first; a
        held promotion leaves the stable alias untouched."""
        endpoint = self.endpoint(name)
        if version is None:
            version = self.registry.get(endpoint.model_name).version
        gate = self._gates.get(name)
        if gate is not None:
            gate.authorize(self, name, self.registry.get(
                endpoint.model_name, version
            ))
        self.registry.deploy(endpoint.model_name, version)
        self._invalidate(endpoint)
        return self.registry.get(endpoint.model_name, version)

    def set_canary(
        self, name: str, version: int, fraction: float
    ) -> ModelVersion:
        """Point the canary alias at ``version`` and route ``fraction``
        of keyed traffic to it."""
        endpoint = self.endpoint(name)
        self.registry.set_alias(endpoint.model_name, "canary", version)
        endpoint.canary = "canary"
        endpoint.router = CanaryRouter(fraction, endpoint.router.seed)
        return self.registry.get(endpoint.model_name, version)

    def clear_canary(self, name: str) -> None:
        endpoint = self.endpoint(name)
        if "canary" in self.registry.aliases(endpoint.model_name):
            self.registry.drop_alias(endpoint.model_name, "canary")
        endpoint.canary = None
        endpoint.router = CanaryRouter(0.0, endpoint.router.seed)

    def invalidate(self, name: str) -> int:
        """Drop an endpoint's compiled scorers and cached predictions;
        returns the number of cache entries dropped. The fabric calls
        this on shard revive (epoch rejoin)."""
        return self._invalidate(self.endpoint(name))

    def _invalidate(self, endpoint: Endpoint) -> int:
        self._scorers = {
            k: v for k, v in self._scorers.items() if k[0] != endpoint.name
        }
        if endpoint.cache is None:
            return 0
        return endpoint.cache.invalidate(endpoint.name)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _route(self, endpoint: Endpoint, key: object | None) -> ModelVersion:
        """Resolve which version answers this request (canary or stable)."""
        use_canary = (
            key is not None
            and endpoint.canary is not None
            and endpoint.router.routes_to_canary(key)
        )
        if use_canary:
            endpoint.counts.inc("canary_requests")
            return self.registry.resolve(endpoint.model_name, endpoint.canary)
        endpoint.counts.inc("stable_requests")
        return self.registry.resolve(
            endpoint.model_name, ModelRegistry.DEPLOYED_ALIAS
        )

    def _scorer_for(self, endpoint: Endpoint, entry: ModelVersion) -> Callable:
        ident = (endpoint.name, entry.version)
        scorer = self._scorers.get(ident)
        if scorer is None:
            base = _build_scorer(entry.model, endpoint.output)

            def scorer(
                batch: np.ndarray,
                deadline_at: float | None = None,
                _base=base,
            ) -> np.ndarray:
                with endpoint.semaphore:
                    return resilient_call(
                        lambda: _base(batch),
                        site="serving.score",
                        key=endpoint.name,
                        retry=self.retry,
                        deadline_at=deadline_at,
                    )

            # The batcher forwards each batch's tightest admission
            # deadline, so scoring retries never outlive their budget.
            scorer.accepts_deadline = True
            self._scorers[ident] = scorer
        return scorer

    def _admit(self, endpoint: Endpoint, key: object | None) -> None:
        """Admission fault site: injected faults become shed requests."""
        try:
            fault_point("serving.admission", key=endpoint.name)
        except InjectedFault as fault:
            endpoint.counts.inc("shed")
            raise LoadShedError(
                endpoint.name,
                endpoint.batcher.depth(),
                endpoint.batcher.queue_capacity,
                reason="chaos",
            ) from fault

    def _serve(
        self,
        name: str,
        rows: Sequence[np.ndarray],
        keys: Sequence[object] | None,
        deadline_ms: float | None,
        closed_loop: bool,
        deadline_at: float | None = None,
    ) -> list[float]:
        """The request path, written once: every row is one request
        through count, admission, canary routing, cache probe and the
        micro-batch queue; then the queue is drained (inline unless a
        worker runs) and each queued request waits out the call's
        budget, is refused if it came back late, and fills the cache.

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
        out: list = [None] * len(rows)
        # (row index, pending handle, row cache key, resolved version)
        pendings: list[tuple] = []
        for i, row in enumerate(rows):
            key = keys[i] if keys is not None else None
            counts.inc("requests")
            self._admit(endpoint, key)
            entry = self._route(endpoint, key)
            row_key = None
            if cache is not None:
                # the whole row, not a 32-bit hash: a hit must be this row
                row_key = row.tobytes()
                cached = cache.get(name, entry.version, row_key)
                if cached is not None:
                    out[i] = cached
                    continue
            if closed_loop and batcher.depth() >= batcher.queue_capacity:
                batcher.flush()
            try:
                pending = batcher.submit(
                    row, self._scorer_for(endpoint, entry), entry.version,
                    deadline_at,
                )
            except LoadShedError:
                counts.inc("shed")
                raise
            pendings.append((i, pending, row_key, entry.version))
        if pendings and not batcher.running:
            batcher.flush()
        for i, pending, row_key, version in pendings:
            timeout = (
                None
                if deadline_at is None
                else max(0.0, deadline_at - self._clock())
            )
            try:
                out[i] = pending.wait(timeout)
                late = deadline_at is not None and self._clock() > deadline_at
            except (TimeoutError, DeadlineExceededError):
                late = True  # never scored, or expired in the queue
            if late:
                # Computed or not, too late — a deadline is a client promise.
                counts.inc("deadline_exceeded")
                raise DeadlineExceededError(name, deadline_ms)
            if cache is not None:
                cache.put(name, version, row_key, out[i])
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
        routing, cache, micro-batch queue, deadline.

        With no background worker running the queue is drained inline
        (deterministic single-caller mode); concurrent callers should
        :meth:`start` the endpoint so their requests coalesce.
        """
        row = np.asarray(row, dtype=np.float64)
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

        Each row is still an individual request (admission, routing,
        cache, deadline), but the queue is drained in vectorized
        batches, so the per-request Python overhead is amortized into
        one kernel call per ``max_batch_size`` rows — the speedup E22
        measures. A row that finds the queue full triggers an inline
        drain instead of shedding (a closed-loop caller is its own
        backpressure).
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ServingError(
                f"predict_many expects a 2-D batch, got shape {rows.shape}"
            )
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
