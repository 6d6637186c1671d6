"""Online model serving: one server, whatever the topology.

The deployment half the lifecycle layer was missing.
:class:`ShardedServer` turns a :class:`~repro.lifecycle.ModelRegistry`
into a live inference surface; a single node is
``ShardedServer(registry, num_shards=1, replication=1)``:

* **Endpoints** resolve models through registry aliases (``"prod"`` /
  ``"canary"``), so a promote is an atomic pointer swap.
* **Canary rollout** routes a deterministic hash-slice of request keys
  to a candidate version (:class:`CanaryRouter` — bit-reproducible).
* **Micro-batching** (:class:`MicroBatcher`) coalesces queued requests
  into vectorized batches of at most ``max_batch_size``; compiled
  affine scorers make batched results bit-identical to single-row
  scoring and to the ``indb`` SQL-scoring path.
* **Prediction cache** (:class:`PredictionCache`), one per endpoint,
  memoizes on ``(model_version, row bytes)`` and is cleared on
  promotion.
* **Admission control** — bounded queues shed load
  (:class:`~repro.errors.LoadShedError`), scoring concurrency is
  capped, and deadlines raise
  :class:`~repro.errors.DeadlineExceededError`; chaos fault sites
  (``serving.admission``, ``serving.score``) plug into
  :mod:`repro.resilience`.
* **Scale-out** — endpoints and the prediction cache are partitioned
  across N shards on a CRC32 consistent-hash :class:`HashRing`, with
  R-way replication, deterministic failover when a shard is killed,
  epoch-based cache invalidation on revive, and per-tenant token-bucket
  admission quotas (:class:`AdmissionQuotas` / :class:`TokenBucket`).
  Each shard's private executor is :mod:`repro.serving.server`'s
  ``ModelServer``.

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
from .server import Endpoint, compile_linear_scorer

__all__ = [
    "AdmissionQuotas",
    "CanaryRouter",
    "Endpoint",
    "HashRing",
    "MicroBatcher",
    "PendingRequest",
    "PredictionCache",
    "ShardedServer",
    "TokenBucket",
    "compile_linear_scorer",
    "feature_hash",
]
