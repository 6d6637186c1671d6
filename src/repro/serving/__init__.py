"""Online model serving: micro-batching, prediction cache, canary rollout.

The deployment half the lifecycle layer was missing. A
:class:`ModelServer` turns a :class:`~repro.lifecycle.ModelRegistry`
into a live inference surface:

* **Endpoints** resolve models through registry aliases (``"prod"`` /
  ``"canary"``), so a promote is an atomic pointer swap.
* **Canary rollout** routes a deterministic hash-slice of request keys
  to a candidate version (:class:`CanaryRouter` — bit-reproducible).
* **Micro-batching** (:class:`MicroBatcher`) coalesces queued requests
  into vectorized batches under ``max_batch_size`` / ``max_delay_ms``;
  compiled affine scorers make batched results bit-identical to
  single-row scoring and to the ``indb`` SQL-scoring path.
* **Prediction cache** (:class:`PredictionCache`) memoizes on
  ``(endpoint, model_version, row bytes)`` with invalidation on
  promotion.
* **Admission control** — bounded queues shed load
  (:class:`~repro.errors.LoadShedError`), scoring concurrency is
  capped, and deadlines raise
  :class:`~repro.errors.DeadlineExceededError`; chaos fault sites
  (``serving.admission``, ``serving.score``) plug into
  :mod:`repro.resilience`.

Scaling a single server out is :mod:`repro.serving.fabric`: a
:class:`ShardedServer` partitions endpoints and the prediction cache
across N shards on a CRC32 consistent-hash :class:`HashRing`, with
R-way replication, deterministic failover when a shard is killed,
epoch-based cache invalidation on revive, per-tenant token-bucket
admission quotas (:class:`AdmissionQuotas` / :class:`TokenBucket`), and
fleet-wide promote/canary.

E22 (``benchmarks/bench_serving.py``) measures the batched-vs-unbatched
throughput, latency percentiles, cache hit ratios, and canary split
exactness this package promises; E26 (``benchmarks/bench_sharding.py``)
gates the sharded fabric's failover, quota, and scaling ledgers.
"""

from .batcher import MicroBatcher, PendingRequest
from .cache import PredictionCache, feature_hash
from .fabric import ShardedServer
from .quota import AdmissionQuotas, TokenBucket
from .ring import CanaryRouter, HashRing
from .server import Endpoint, ModelServer, compile_linear_scorer

__all__ = [
    "AdmissionQuotas",
    "CanaryRouter",
    "Endpoint",
    "HashRing",
    "MicroBatcher",
    "ModelServer",
    "PendingRequest",
    "PredictionCache",
    "ShardedServer",
    "TokenBucket",
    "compile_linear_scorer",
    "feature_hash",
]
