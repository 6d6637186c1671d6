"""Sharded, replicated serving fabric with deterministic failover.

One :class:`~repro.serving.server.ModelServer` process is a single
point of failure and a single GIL: the roadmap's scale-out item calls
for partitioning endpoints *and* the prediction cache across N server
shards. :class:`ShardedServer` is that fabric:

* **Placement** — endpoints land on shards via a CRC32 consistent-hash
  :class:`~repro.serving.ring.HashRing` (bit-reproducible like
  :class:`~repro.serving.ring.CanaryRouter`; resizing the fleet
  remaps only ~1/N of the key space). Hot endpoints replicate onto the
  next R distinct ring successors.
* **Routing** — a request key deterministically picks one of the
  endpoint's R replicas (a CRC32 rotation of the replica list), so each
  replica serves — and caches — a stable slice of the key space.
* **Failover** — shards are health-tracked (`kill_shard` /
  `revive_shard`, the `SimulatedCluster` idiom). A request whose
  replica is dead walks its preference list to the next live replica;
  because every replica scores through the same compiled scorer, a
  failover can never change an answer. The fleet keeps an exact
  ``failovers`` / ``rerouted`` / ``replica_hits`` ledger.
* **Epoch rejoin** — a revived shard re-enters with its epoch bumped
  and its prediction caches invalidated, so it cannot serve answers
  cached before it died (it may have missed promotes).
* **Tenant isolation** — per-tenant token-bucket quotas
  (:class:`~repro.serving.quota.AdmissionQuotas`) meter admission
  *before* any shard queue: a hot tenant sheds its own overflow
  (``LoadShedError`` with ``reason="quota"`` and the tenant in its
  structured context) instead of starving the fleet.
* **Fleet rollout** — promote/canary fan out to every hosting
  shard; the canary hash split stays exact across the whole fleet
  because every replica routes with the same seeded router.
* **Chaos** — ``fabric.route`` guards routing, ``fabric.score`` guards
  the dispatch to a shard (an injected fault there fails over to the
  next replica); both compose with
  :class:`~repro.resilience.RetryPolicy`, whose total budget is capped
  by the request's admission deadline.

E26 (``benchmarks/bench_sharding.py``) is the closed-loop gate: >= 1M
skewed multi-tenant requests, bit-identical to a single-server oracle,
with a mid-stream kill recovered exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import (
    DeadlineExceededError,
    InjectedFault,
    LoadShedError,
    NoLiveReplicaError,
    RetryExhaustedError,
    ServingError,
    WorkerFailure,
)
from ..lifecycle.registry import ModelRegistry, ModelVersion
from ..obs import Ledger, get_registry
from ..resilience import RetryPolicy, active_chaos, resilient_call
from .quota import AdmissionQuotas
from .ring import HashRing, key_token, placement_hash
from .server import ModelServer

#: a shard dispatch failing with one of these fails over to the next
#: live replica instead of failing the request.
_FAILOVER_ERRORS = (InjectedFault, RetryExhaustedError, WorkerFailure)


@dataclass
class _Shard:
    """One shard's server plus its health state."""

    shard_id: str
    server: ModelServer
    live: bool = True
    epoch: int = 0
    served: int = 0


@dataclass(frozen=True)
class _FabricEndpoint:
    """Fleet-level endpoint record: its placement."""

    name: str
    model_name: str
    replicas: tuple[str, ...]  # rank 0 is the home shard


class ShardedServer:
    """N consistent-hash sharded :class:`ModelServer` instances.

    Args:
        registry: shared model registry all shards resolve through.
        num_shards: fleet size (shard ids ``shard-0 .. shard-N-1``).
        replication: replica count per endpoint (clamped to the fleet
            size).
        seed: placement/routing salt (ring points and key spreading).
        retry: policy for the ``fabric.route`` / ``fabric.score`` sites
            and each shard's ``serving.score`` site.
        clock: injectable monotonic clock shared by shards and quotas.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        num_shards: int = 2,
        replication: int = 2,
        *,
        seed: int = 0,
        retry: RetryPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if num_shards < 1:
            raise ServingError(f"num_shards must be >= 1, got {num_shards}")
        if replication < 1:
            raise ServingError(
                f"replication must be >= 1, got {replication}"
            )
        self.registry = registry
        self.replication = min(replication, num_shards)
        self.seed = seed
        self.retry = retry
        self._clock = clock
        shard_ids = [f"shard-{i}" for i in range(num_shards)]
        self.ring = HashRing(shard_ids, seed=seed)
        self._shards: dict[str, _Shard] = {
            sid: _Shard(sid, ModelServer(registry, retry=retry, clock=clock))
            for sid in shard_ids
        }
        self._endpoints: dict[str, _FabricEndpoint] = {}
        self.quotas = AdmissionQuotas(clock=clock)
        #: exact fleet-wide routing/admission ledger (E26 gates on it):
        #: ``failovers`` = requests that skipped >= 1 dead/failed
        #: replica, ``rerouted`` = those skips summed, ``replica_hits`` =
        #: requests served off their home replica,
        #: ``epoch_invalidations`` = cache entries dropped on revive
        self.ledger = Ledger("fabric", (
            "requests", "quota_shed", "failovers", "rerouted",
            "replica_hits", "epoch_invalidations",
        ))
        self._gates: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Fleet topology
    # ------------------------------------------------------------------
    def shard_ids(self) -> list[str]:
        return sorted(self._shards)

    def shard(self, shard_id: str) -> _Shard:
        shard = self._shards.get(shard_id)
        if shard is None:
            raise ServingError(f"no shard named {shard_id!r}")
        return shard

    def kill_shard(self, shard_id: str) -> None:
        """Mark a shard dead; its traffic fails over deterministically."""
        shard = self.shard(shard_id)
        if not shard.live:
            raise ServingError(f"shard {shard_id!r} is already dead")
        shard.live = False
        get_registry().inc("fabric.shard_kills")

    def revive_shard(self, shard_id: str) -> int:
        """Rejoin a dead shard at a new epoch.

        Its prediction caches are invalidated (it may have missed
        promotes while dead), so a revived shard can never serve an
        answer cached before it died. Returns the entries dropped.
        """
        shard = self.shard(shard_id)
        if shard.live:
            raise ServingError(f"shard {shard_id!r} is already live")
        shard.live = True
        shard.epoch += 1
        dropped = 0
        for endpoint in self._endpoints.values():
            if shard_id in endpoint.replicas:
                dropped += shard.server.invalidate(endpoint.name)
        self.ledger.inc("epoch_invalidations", dropped)
        get_registry().inc("fabric.shard_revives")
        return dropped

    # ------------------------------------------------------------------
    # Endpoint management and fleet-wide rollout
    # ------------------------------------------------------------------
    def create_endpoint(
        self, name: str, model_name: str, **config
    ) -> _FabricEndpoint:
        """Place an endpoint on its ring successors and create it on
        each hosting shard (identical config, so routing and canary
        splits agree on every replica)."""
        if name in self._endpoints:
            raise ServingError(f"endpoint {name!r} already exists")
        replicas = tuple(self.ring.successors(name, self.replication))
        endpoint = _FabricEndpoint(name, model_name, replicas)
        for sid in replicas:
            self._shards[sid].server.create_endpoint(
                name, model_name, **config
            )
        self._endpoints[name] = endpoint
        return endpoint

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)

    def replicas_of(self, name: str) -> tuple[str, ...]:
        return self._endpoint(name).replicas

    def _endpoint(self, name: str) -> _FabricEndpoint:
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise ServingError(f"no endpoint named {name!r}")
        return endpoint

    def _hosting(self, name: str):
        for sid in self._endpoint(name).replicas:
            yield self._shards[sid]

    def set_promotion_gate(self, name: str, gate) -> None:
        """Install a fleet-level promotion gate; a hold fires before any
        shard has deployed, so a refused promotion leaves the whole
        fleet on the old version (no torn rollout)."""
        self._endpoint(name)  # validates the endpoint exists
        self._gates[name] = gate

    def promote(self, name: str, version: int | None = None) -> ModelVersion:
        """Fleet-wide promote: one registry deploy, every replica's
        cache invalidated. An installed gate authorizes first."""
        endpoint = self._endpoint(name)
        if version is None:
            version = self.registry.get(endpoint.model_name).version
        gate = self._gates.get(name)
        if gate is not None:
            gate.authorize(self, name, self.registry.get(
                endpoint.model_name, version
            ))
        entry = None
        for shard in self._hosting(name):
            entry = shard.server.promote(name, version)
        return entry

    def set_canary(
        self, name: str, version: int, fraction: float
    ) -> ModelVersion:
        """Point every replica's canary at ``version``; the hash split
        is exact across the fleet because all replicas share one seeded
        router."""
        entry = None
        for shard in self._hosting(name):
            entry = shard.server.set_canary(name, version, fraction)
        return entry

    def clear_canary(self, name: str) -> None:
        for shard in self._hosting(name):
            shard.server.clear_canary(name)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def preference(self, name: str, key: object | None) -> list[str]:
        """The request's deterministic replica preference order.

        ``None`` keys stay on the home replica; keyed requests rotate
        the replica list by a CRC32 of ``(seed, endpoint, key)`` so the
        key space — and therefore the prediction cache — partitions
        evenly across replicas, with each key owning a stable failover
        order.
        """
        replicas = self._endpoint(name).replicas
        if key is None or len(replicas) == 1:
            return list(replicas)
        token = key_token(key)
        start = placement_hash(self.seed, f"{name}|{token}") % len(replicas)
        return list(replicas[start:] + replicas[:start])

    def route(self, name: str, key: object | None) -> tuple[str, int]:
        """(live serving shard, dead replicas skipped) for one request.

        Pure given the current liveness map: the failover replay that
        the sharding tests hold :meth:`_place` to.
        """
        preference = self.preference(name, key)
        skips = 0
        for sid in preference:
            if self._shards[sid].live:
                return sid, skips
            skips += 1
        raise NoLiveReplicaError(name, tuple(preference))

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def set_quota(
        self, tenant: object, capacity: float, refill_per_s: float
    ) -> None:
        """Give one tenant a token-bucket admission quota."""
        self.quotas.set_quota(tenant, capacity, refill_per_s)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _place(
        self, name: str, key: object, tenant: object, deadline_at: float | None
    ) -> tuple[str, int]:
        """Place one request — the step both doors take per request:
        token-bucket admission ahead of every shard queue, the
        ``fabric.route`` site (routing-table faults are transient and
        recovered under the retry policy), then the preference walk,
        skipping dead shards and firing ``fabric.score`` per attempted
        shard (an injected fault there is a failed dispatch — retried
        under the policy, then failed over to the next live replica).
        Returns ``(serving shard, replicas skipped)``."""
        if not self.quotas.admit(tenant):
            self.ledger.inc("quota_shed")
            raise LoadShedError(
                name,
                0,
                int(self.quotas.bucket(tenant).capacity),  # refused: it exists
                tenant=tenant,
                reason="quota",
            )
        resilient_call(
            lambda: None,
            site="fabric.route",
            key=name,
            retry=self.retry,
            deadline_at=deadline_at,
        )
        preference = self.preference(name, key)
        skips = 0
        last: BaseException | None = None
        for sid in preference:
            if not self._shards[sid].live:
                skips += 1
                continue
            try:
                resilient_call(
                    lambda: None,
                    site="fabric.score",
                    key=(name, sid),
                    retry=self.retry,
                    deadline_at=deadline_at,
                )
            except _FAILOVER_ERRORS as exc:
                last = exc
                skips += 1
                continue
            return sid, skips
        raise NoLiveReplicaError(name, tuple(preference)) from last

    def _serve_on(
        self,
        sid: str,
        door: str,
        skips: Sequence[int],
        tenants: Iterable[object],
        name: str,
        rows: np.ndarray,
        keys: object,
        deadline_ms: float | None,
        deadline_at: float | None = None,
    ):
        """Dispatch placed requests to their shard — the tail both doors
        share: call the shard server's ``door`` (``predict`` with a row
        and a key, ``predict_many`` with a shard group's) under the
        budget placement already drew on (``deadline_at``), re-raise its
        shed or deadline error attributed (the shard always, the tenant
        when the dispatched rows share one), and only then account what
        was served, ``skips`` holding one entry per request."""
        shard = self._shards[sid]
        try:
            out = getattr(shard.server, door)(
                name, rows, keys, deadline_ms, deadline_at
            )
        except (LoadShedError, DeadlineExceededError) as exc:
            shared = set(tenants)
            tenant = shared.pop() if len(shared) == 1 else None
            if isinstance(exc, DeadlineExceededError):
                raise DeadlineExceededError(
                    exc.endpoint, exc.deadline_ms, tenant=tenant, shard=sid
                ) from exc
            raise LoadShedError(
                exc.endpoint,
                exc.queue_depth,
                exc.capacity,
                tenant=tenant,
                shard=sid,
                reason=exc.reason,
            ) from exc
        shard.served += len(skips)
        rerouted = sum(skips)
        if rerouted:
            self.ledger.inc("failovers", len(skips) - skips.count(0))
            self.ledger.inc("rerouted", rerouted)
        if sid != self._endpoints[name].replicas[0]:
            self.ledger.inc("replica_hits", len(skips))
        return out

    def predict(
        self,
        name: str,
        row: np.ndarray,
        key: object | None = None,
        tenant: object = None,
        deadline_ms: float | None = None,
    ) -> float:
        """Serve one prediction through the fleet: quota admission,
        ring routing, deterministic failover, then the owning shard's
        full single-server path."""
        self.ledger.inc("requests")
        deadline_at = (
            self._clock() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        sid, skips = self._place(name, key, tenant, deadline_at)
        return self._serve_on(
            sid, "predict", (skips,), (tenant,), name, row, key, deadline_ms,
            deadline_at,
        )

    def predict_many(
        self,
        name: str,
        rows: np.ndarray,
        keys: Sequence[object] | None = None,
        tenants: Sequence[object] | None = None,
        deadline_ms: float | None = None,
        on_shed: str = "raise",
    ) -> np.ndarray | tuple[np.ndarray, list[int]]:
        """Serve a stream: route each row, then drain each shard's
        slice through that shard's micro-batcher in one vectorized call.

        ``on_shed="raise"`` propagates the first quota shed;
        ``on_shed="null"`` records shed rows as NaN and returns
        ``(values, shed_indices)`` — what a closed-loop load generator
        wants, because one hot tenant's sheds must not abort the
        stream.
        """
        if on_shed not in ("raise", "null"):
            raise ServingError(
                f"on_shed must be 'raise' or 'null', got {on_shed!r}"
            )
        endpoint = self._endpoint(name)
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ServingError(
                f"predict_many expects a 2-D batch, got shape {rows.shape}"
            )
        n = rows.shape[0]
        if keys is not None and len(keys) != n:
            raise ServingError("one key per row required")
        if tenants is not None and len(tenants) != n:
            raise ServingError("one tenant per row required")

        # Fast path: a single-replica fleet with no quotas and no chaos
        # is a plain ModelServer with a ring lookup in front — dispatch
        # the call as one group on its home shard (no skips, no tenants)
        # so the fabric-disabled overhead stays < 3% (E26).
        if (
            len(endpoint.replicas) == 1
            and tenants is None
            and not self.quotas.configured
            and active_chaos() is None
        ):
            sid = endpoint.replicas[0]
            if not self._shards[sid].live:
                raise NoLiveReplicaError(name, endpoint.replicas)
            self.ledger.inc("requests", n)
            out = self._serve_on(
                sid, "predict_many", [0] * n, (), name, rows, keys, deadline_ms
            )
            return (out, []) if on_shed == "null" else out

        deadline_at = (
            self._clock() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        self.ledger.inc("requests", n)
        out = np.full(n, np.nan)  # a shed row stays NaN
        shed_indices: list[int] = []
        # shard -> (row indices, replicas each of those rows skipped)
        groups: dict[str, tuple[list[int], list[int]]] = {}
        for i in range(n):
            try:
                sid, skips = self._place(
                    name,
                    keys[i] if keys is not None else None,
                    tenants[i] if tenants is not None else None,
                    deadline_at,
                )
            except LoadShedError:
                if on_shed == "raise":
                    raise
                shed_indices.append(i)
                continue
            indices, skipped = groups.setdefault(sid, ([], []))
            indices.append(i)
            skipped.append(skips)
        for sid in sorted(groups):
            indices, skipped = groups[sid]
            out[indices] = self._serve_on(
                sid,
                "predict_many",
                skipped,
                (tenants[i] for i in indices) if tenants is not None else (),
                name,
                rows[indices],
                [keys[i] for i in indices] if keys is not None else None,
                deadline_ms,
                deadline_at,
            )
        return (out, shed_indices) if on_shed == "null" else out

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Fleet ledger: routing/admission counters, per-shard health
        and load, per-tenant quota ledger, per-endpoint placement."""
        return {
            "ledger": self.ledger.as_dict(),
            "shards": {
                sid: {
                    "live": shard.live,
                    "epoch": shard.epoch,
                    "served": shard.served,
                    "endpoints": shard.server.stats(),
                }
                for sid, shard in sorted(self._shards.items())
            },
            "tenants": self.quotas.stats(),
            "endpoints": {
                name: {
                    "model": e.model_name,
                    "replicas": list(e.replicas),
                    "home": e.replicas[0],
                }
                for name, e in sorted(self._endpoints.items())
            },
        }

    def close(self) -> None:
        for shard in self._shards.values():
            shard.server.close()

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
