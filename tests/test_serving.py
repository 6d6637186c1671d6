"""Unit and property tests for the online serving subsystem.

Covers the four serving pillars (router, cache, batcher, server), the
registry rollout satellites (aliases, undeploy, rollback), cache
invalidation on promote/rollback, the hypothesis ordering property of
the micro-batcher, and the chaos coverage of the serving path
(admission shedding, scoring retries, deadline misses).
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.data import make_classification
from repro.errors import (
    DeadlineExceededError,
    LifecycleError,
    LoadShedError,
    ServingError,
)
from repro.lifecycle import ModelRegistry
from repro.ml import LogisticRegression
from repro.ml.losses import sigmoid
from repro.resilience import ChaosContext, FaultPlan, RetryPolicy
from repro.serving import (
    CanaryRouter,
    MicroBatcher,
    PredictionCache,
    ShardedServer,
    compile_linear_scorer,
    feature_hash,
)
from repro.serving.batcher import MAX_CONCURRENCY
from repro.serving.server import _BLOCK_ROWS


class FakeClock:
    """Manually advanced monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


#: the two doors of the one request path; ``_ask`` sends one request
#: through either, so a case written once holds for both.
DOORS = ("predict", "predict_many")


def _ask(server, door, name, row, **kwargs):
    if door == "predict":
        return server.predict(name, row, **kwargs)
    return server.predict_many(name, row[None, :], **kwargs)[0]


class _PredictsWith:
    """A registered model whose ``predict`` is ``fn``: an endpoint with
    ``output="predict"`` hands it every batch."""

    def __init__(self, fn):
        self.predict = fn


def _one_shard(registry, **kwargs):
    """A single-node deployment: the one public server on one shard."""
    return ShardedServer(registry, num_shards=1, replication=1, **kwargs)


def _endpoint(server, name):
    """An endpoint's internals, on the one shard's executor."""
    return server.shard("shard-0").server.endpoint(name)


@functools.lru_cache(maxsize=1)
def _fit_pair():
    X, y = make_classification(300, 5, separation=2.5, seed=11)
    m1 = LogisticRegression(max_iter=30).fit(X, y)
    m2 = LogisticRegression(max_iter=60, l2=0.5).fit(X, y)
    return X, y, m1, m2


@pytest.fixture
def model_pair():
    return _fit_pair()


@pytest.fixture
def served(model_pair):
    """(server, registry, X) with v1 promoted on endpoint 'score'."""
    X, _, m1, m2 = model_pair
    registry = ModelRegistry()
    registry.register("churn", m1)
    registry.register("churn", m2)
    server = _one_shard(registry)
    server.create_endpoint("score", "churn")
    server.promote("score", 1)
    yield server, registry, X
    server.close()


# ----------------------------------------------------------------------
# Canary router
# ----------------------------------------------------------------------
class TestCanaryRouter:
    def test_deterministic_across_instances(self):
        a = CanaryRouter(0.3, seed=7)
        b = CanaryRouter(0.3, seed=7)
        keys = [f"user-{i}" for i in range(500)]
        assert [a.routes_to_canary(k) for k in keys] == [
            b.routes_to_canary(k) for k in keys
        ]

    def test_seed_changes_assignment(self):
        keys = [f"user-{i}" for i in range(500)]
        a = [CanaryRouter(0.5, seed=1).routes_to_canary(k) for k in keys]
        b = [CanaryRouter(0.5, seed=2).routes_to_canary(k) for k in keys]
        assert a != b

    def test_fraction_monotone(self):
        """Raising the fraction only adds keys, never reshuffles."""
        keys = [f"k{i}" for i in range(400)]
        small = {k for k in keys if CanaryRouter(0.05, 3).routes_to_canary(k)}
        large = {k for k in keys if CanaryRouter(0.30, 3).routes_to_canary(k)}
        assert small <= large

    def test_fraction_zero_and_one(self):
        assert not CanaryRouter(0.0, 1).routes_to_canary("x")
        assert CanaryRouter(1.0, 1).routes_to_canary("x")

    def test_invalid_fraction(self):
        with pytest.raises(ServingError):
            CanaryRouter(1.5)


# ----------------------------------------------------------------------
# Prediction cache
# ----------------------------------------------------------------------
class TestPredictionCache:
    def test_hit_after_put(self):
        cache = PredictionCache(capacity=8)
        cache.put([1], [42], [0.5])
        assert cache.get([1], [42]) == [0.5]
        assert cache.stats.hits == 1

    def test_version_in_key(self):
        cache = PredictionCache(capacity=8)
        cache.put([1], [42], [0.5])
        assert cache.get([2], [42]) == [None]  # other version never hits

    def test_lru_eviction(self):
        cache = PredictionCache(capacity=2)
        cache.put([1], [1], [0.1])
        cache.put([1], [2], [0.2])
        assert cache.get([1], [1]) == [0.1]  # touch 1 -> 2 becomes LRU
        cache.put([1], [3], [0.3])
        assert cache.get([1], [2]) == [None]
        assert cache.stats.evictions == 1

    def test_one_probe_per_call_in_row_order(self):
        """A call's rows are probed under one lock, in row order (so LRU
        recency is the per-row walk's), with one hits and one misses
        write."""
        cache = PredictionCache(capacity=2)
        cache.put([1, 1], [1, 2], [0.1, 0.2])  # one call: row order
        assert cache.get([1, 2, 1, 1], [2, 9, 1, 2]) == [
            0.2, None, 0.1, 0.2,
        ]
        cache.put([1], [3], [0.3])  # 1 was touched before 2 last: evicts 1
        assert cache.get([1, 1], [1, 2]) == [None, 0.2]
        assert (cache.stats.hits, cache.stats.misses) == (4, 2)

    def test_invalidate_drops_every_entry(self):
        """A cache belongs to one endpoint: a promote drops all of it,
        every version, and counts what it dropped."""
        cache = PredictionCache(capacity=8)
        cache.put([1, 2, 2], [1, 2, 1], [0.1, 0.2, 0.3])
        assert cache.invalidate() == 3
        assert len(cache) == 0
        assert cache.get([1, 2, 2], [1, 2, 1]) == [None] * 3
        assert cache.stats.invalidations == 3
        cache.put([3], [1], [0.4])
        assert cache.get([3], [1]) == [0.4]
        assert cache.invalidate() == 1
        assert cache.stats.invalidations == 4

    def test_feature_hash_stable(self):
        row = np.array([1.0, 2.0, 3.0])
        assert feature_hash(row) == feature_hash(row.copy())
        assert feature_hash(row) != feature_hash(np.array([1.0, 2.0, 3.5]))
        # shape participates: a scalar-equal but differently-shaped
        # vector must not collide by construction
        assert feature_hash(np.array([1.0])) != feature_hash(
            np.array([[1.0]])
        )


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------
def _affine(mult: float, add: float = 0.0):
    def score(batch: np.ndarray) -> np.ndarray:
        return batch[:, 0] * mult + add

    return score


def _recording(score, calls: list):
    """``score``, noting the first column of every batch it is handed."""

    def recorded(batch: np.ndarray) -> np.ndarray:
        calls.append(batch[:, 0].tolist())
        return score(batch)

    return recorded


def _block(*values: float) -> np.ndarray:
    """A submitted block: one one-column row per value."""
    return np.array(values, dtype=np.float64)[:, None]


class TestMicroBatcher:
    def test_fifo_prefix_drain(self):
        """However the seven rows arrive in blocks, a flush scores the
        next ``max_batch_size`` rows at a time, cutting a block where a
        batch ends: the batches are the rows' single-row queue's."""
        for sizes in ([1] * 7, [7], [2, 4, 1], [3, 3, 1]):
            b = MicroBatcher("ep", max_batch_size=3)
            batches = []
            score = _recording(_affine(2.0), batches)
            bounds = np.cumsum([0] + sizes).tolist()
            pendings = [
                b.submit(_block(*range(lo, hi)), score, version=1)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            assert b.depth() == 7
            assert b.flush() == 7
            assert batches == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0]]
            assert (b.batches, b.batched_requests) == (3, 7)
            assert all(p.done for p in pendings)
            assert [p.wait().tolist() for p in pendings] == [
                [2.0 * i for i in range(lo, hi)]
                for lo, hi in zip(bounds, bounds[1:])
            ]

    def test_sheds_at_capacity(self):
        """Capacity and depth count rows: a block sheds when its rows
        would overfill the queue."""
        b = MicroBatcher("ep", max_batch_size=4, queue_capacity=3)
        b.submit(_block(1.0, 2.0), _affine(1.0), 1)
        with pytest.raises(LoadShedError) as exc:
            b.submit(_block(3.0, 4.0), _affine(1.0), 1)
        assert exc.value.queue_depth == 2
        b.submit(_block(3.0), _affine(1.0), 1)
        with pytest.raises(LoadShedError):
            b.submit(_block(4.0), _affine(1.0), 1)
        assert b.shed == 2
        assert b.flush() == 3

    def test_mixed_versions_in_one_batch(self):
        b = MicroBatcher("ep", max_batch_size=8)
        p1 = b.submit(_block(1.0), _affine(10.0), version=1)
        p2 = b.submit(_block(1.0, 3.0), _affine(-1.0), version=2)
        p3 = b.submit(_block(2.0), _affine(10.0), version=1)
        assert b.flush() == 4
        assert [p.wait().tolist() for p in (p1, p2, p3)] == [
            [10.0], [-1.0, -3.0], [20.0],
        ]
        assert b.batches == 1  # one drain, grouped internally

    def test_a_block_taller_than_a_batch_is_scored_in_slices(self):
        b = MicroBatcher("ep", max_batch_size=64)
        batches = []
        block = _block(*range(200))
        pending = b.submit(block, _recording(_affine(1.0), batches), 1)
        assert b.flush() == 200
        assert [len(rows) for rows in batches] == [64, 64, 64, 8]
        assert pending.wait().tolist() == block[:, 0].tolist()
        assert (b.batches, b.batched_requests) == (4, 200)

    def test_scorer_error_delivered_to_requests(self):
        def broken(batch):
            raise ValueError("boom")

        b = MicroBatcher("ep", max_batch_size=4)
        good = b.submit(_block(1.0), _affine(3.0), version=1)
        bad = b.submit(_block(1.0, 2.0), broken, version=2)
        b.flush()
        assert good.wait().tolist() == [3.0]
        with pytest.raises(ValueError, match="boom"):
            bad.wait(0.1)

    def test_expired_request_not_scored(self):
        clock = FakeClock()
        b = MicroBatcher("ep", max_batch_size=4, clock=clock)
        seen = []

        def recording(batch):
            seen.extend(batch[:, 0].tolist())
            return batch[:, 0]

        expired = b.submit(_block(1.0, 3.0), recording, 1, deadline_at=5.0)
        alive = b.submit(_block(2.0), recording, 1, deadline_at=50.0)
        clock.advance(10.0)
        b.flush()
        assert seen == [2.0]
        assert alive.wait().tolist() == [2.0]
        with pytest.raises(DeadlineExceededError):
            expired.wait(0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.lists(
                    st.floats(
                        min_value=-50.0,
                        max_value=50.0,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    min_size=1,
                    max_size=4,
                ),  # one block's rows
                st.integers(min_value=1, max_value=2),  # version
                st.booleans(),  # drain one batch after this arrival?
            ),
            min_size=1,
            max_size=40,
        ),
        batch_size=st.integers(min_value=1, max_value=5),
    )
    def test_ordering_property(self, ops, batch_size):
        """Random arrival interleavings of blocks: every response lands
        with its own row (right row, right version's scorer), drains
        complete blocks FIFO within the endpoint, and the batch count
        is the rows' single-row queue's."""
        seen = {1: [], 2: []}
        scorers = {
            1: _recording(_affine(2.0, 1.0), seen[1]),
            2: _recording(_affine(-3.0), seen[2]),
        }
        expected = {1: lambda v: v * 2.0 + 1.0, 2: lambda v: v * -3.0}
        b = MicroBatcher("prop", max_batch_size=batch_size)
        submitted = []
        batches = 0
        for values, version, drain in ops:
            submitted.append(
                (b.submit(_block(*values), scorers[version], version),
                 values, version)
            )
            if drain:
                batches += -(-b.depth() // batch_size)
                b.flush()
                assert all(p.done for p, _, _ in submitted)
        batches += -(-b.depth() // batch_size)
        b.flush()
        assert b.batches == batches
        for pending, values, version in submitted:
            assert pending.done
            assert pending.wait().tolist() == [
                expected[version](v) for v in values
            ]
        # FIFO: each version's rows reach its scorer in arrival order,
        # at most one batch at a time
        for version, calls in seen.items():
            assert all(len(rows) <= batch_size for rows in calls)
            assert [v for rows in calls for v in rows] == [
                v for _, values, ver in submitted if ver == version
                for v in values
            ]


class TestDrainCompletesEveryRequest:
    """Whatever goes wrong with a popped batch is delivered to its
    blocks as a typed error; the drain survives."""

    def test_ragged_batch_fails_its_requests_inline(self):
        b = MicroBatcher("ep", max_batch_size=8)
        narrow = b.submit(np.array([[1.0, 2.0]]), _affine(1.0), 1)
        wide = b.submit(np.array([[1.0, 2.0, 3.0]]), _affine(1.0), 1)
        other = b.submit(_block(5.0), _affine(2.0), 2)
        assert b.flush() == 3  # raised ValueError before PR 20
        assert narrow.done and wide.done and other.done
        for pending in (narrow, wide):
            with pytest.raises(ServingError, match=r"\(2,\), \(3,\)"):
                pending.wait(0.1)
        assert other.wait(0.1).tolist() == [10.0]  # the other group's fine
        assert b.depth() == 0 and b.batches == 1

    def test_ragged_row_through_the_server_door(self, served):
        server, _, X = served
        executor = server.shard("shard-0").server
        endpoint = executor.endpoint("score")
        scorer = executor._scorer_for(
            endpoint, server.registry.get("churn", 1)
        )
        queued = endpoint.batcher.submit(np.ones((1, 9)), scorer, 1)
        with pytest.raises(ServingError, match="differ in shape"):
            server.predict("score", X[0])
        assert queued.done
        assert server.predict("score", X[1]) == compile_linear_scorer(
            server.registry.get("churn", 1).model
        )(X[1:2])[0]

    def test_misshapen_scores_fail_the_group(self):
        b = MicroBatcher("ep")
        pendings = [
            b.submit(_block(float(i)), lambda batch: batch, 1)  # (n, 1)
            for i in range(2)
        ]
        b.flush()
        for pending in pendings:
            with pytest.raises(ServingError, match=r"shape \(2, 1\)"):
                pending.wait(0.1)


class TestCompletionHandle:
    """``PendingRequest`` under real threads, and free of thread
    machinery when nobody waits before completion."""

    def test_timeout_then_completion_is_still_readable(self):
        b = MicroBatcher("ep")
        pending = b.submit(_block(4.0, 1.0), _affine(2.0), 1)
        assert not pending.done
        with pytest.raises(TimeoutError):
            pending.wait(0.01)
        assert not pending.done  # a timed-out wait completes nothing
        b.flush()
        assert pending.done
        assert pending.wait().tolist() == pending.wait(0.0).tolist() == [
            8.0, 2.0,
        ]

    def test_done_flips_exactly_at_completion(self):
        seen = []
        b = MicroBatcher("ep", max_batch_size=2)

        def scorer(batch):
            seen.append(pending.done)  # scored, not yet completed
            return batch[:, 0]

        pending = b.submit(_block(1.0, 2.0, 3.0), scorer, 1)
        b.flush()
        # a block cut across two batches completes after its last one
        assert seen == [False, False] and pending.done

    def test_two_waiters_on_one_handle_both_wake(self):
        b = MicroBatcher("ep")
        pending = b.submit(_block(3.0), _affine(5.0), 1)
        waiting = threading.Barrier(3)
        got: list[float] = []

        def waiter() -> None:
            waiting.wait(timeout=5.0)
            got.append(pending.wait(5.0).tolist())

        threads = [threading.Thread(target=waiter) for _ in range(2)]
        for t in threads:
            t.start()
        waiting.wait(timeout=5.0)
        time.sleep(0.05)  # both are (almost surely) blocked by now
        b.flush()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        assert got == [[15.0], [15.0]]

    def test_every_waiter_gets_its_own_answer_under_contention(self):
        """Three-row blocks in batches of 16: most blocks are cut across
        two batches, which concurrent flushes may score in either
        order; each block still completes once, with its own rows."""
        threads_n, each = 8, 500
        b = MicroBatcher("ep", max_batch_size=16)
        got: dict[int, list[list[float]]] = {}
        errors: list[Exception] = []

        def ask(value: float) -> list[float]:
            # another client's flush may score this block first
            pending = b.submit(
                _block(value, value + 0.5, value + 0.25),
                _affine(2.0, 1.0), 1,
            )
            b.flush()
            return pending.wait(10.0).tolist()

        def client(t: int) -> None:
            try:
                got[t] = [ask(float(t * each + i)) for i in range(each)]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force handoffs inside the handshake
        try:
            threads = [
                threading.Thread(target=client, args=(t,))
                for t in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for t in range(threads_n):
            assert got[t] == [
                [2.0 * (t * each + i + d) + 1.0 for d in (0.0, 0.5, 0.25)]
                for i in range(each)
            ]
        assert b.batched_requests == threads_n * each * 3
        assert b.depth() == 0

    def test_inline_requests_construct_no_event(self, served, monkeypatch):
        server, _, X = served
        server.create_endpoint("cold", "churn", cache_enabled=False)
        made = []
        real = threading.Event

        def counting(*args, **kwargs):
            made.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.serving.batcher.threading.Event", counting)
        for i in range(1000):
            server.predict("cold", X[i % len(X)])
        assert made == []
        assert _endpoint(server, "cold").batcher.batches == 1000

    @pytest.mark.parametrize("door", DOORS)
    def test_scorer_gets_a_fresh_contiguous_float64_batch(
        self, model_pair, door
    ):
        X, _, m1, _ = model_pair
        seen = []

        def greedy(batch):
            seen.append((batch.dtype, batch.shape, batch.flags.c_contiguous,
                         batch.flags.owndata))
            scores = batch[:, 0] + 1.0
            batch[:] = -1.0  # must not reach the caller's row
            return scores

        registry = ModelRegistry()
        registry.register("churn", _PredictsWith(greedy))
        server = _one_shard(registry)
        server.create_endpoint("g", "churn", output="predict")
        server.promote("g", 1)
        row = X[7].copy()
        assert _ask(server, door, "g", row) == X[7, 0] + 1.0
        assert np.array_equal(row, X[7])
        assert seen == [(np.dtype(np.float64), (1, X.shape[1]), True, True)]


class TestMissPathLedger:
    """A call's misses, whatever their number, hits and canary split:
    the batch count is the one single queued rows give (``ceil(misses /
    64)``; a batch may mix versions), ``batched_requests`` is the
    misses, the cache gains exactly the scored ``(version, row bytes)``
    keys, and each answer is bitwise its row scored alone. The exits
    count as a per-row walk would: a late call raises once and counts
    every request, and an open-loop row on a full queue sheds once."""

    @staticmethod
    def _fleet(canary_fraction, **config):
        X, _, m1, m2 = _fit_pair()
        registry = ModelRegistry()
        registry.register("churn", m1)
        registry.register("churn", m2)
        server = _one_shard(
            registry, clock=config.pop("clock", time.monotonic)
        )
        server.create_endpoint(
            "score", "churn", cache_capacity=1 << 12, **config
        )
        server.promote("score", 1)
        if canary_fraction:
            server.set_canary("score", 2, canary_fraction)
        return server, {1: m1, 2: m2}

    @settings(max_examples=24, deadline=None)
    @given(
        k=st.sampled_from([0, 1, 63, 64, 65, 200, 1025]),
        hit_every=st.sampled_from([0, 1, 2, 3, 7]),  # 0: no warm rows
        canary_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_batches_rows_cache_and_answers(
        self, k, hit_every, canary_fraction, seed
    ):
        server, models = self._fleet(canary_fraction)
        endpoint = _endpoint(server, "score")
        rows = np.random.default_rng(seed).normal(size=(k, 5))
        keys = [f"user-{seed}-{i}" for i in range(k)]
        router = CanaryRouter(canary_fraction, 0)
        versions = [2 if router.routes_to_canary(key) else 1 for key in keys]
        warm = list(range(0, k, hit_every)) if hit_every else []
        if warm:
            server.predict_many(
                "score", rows[warm], keys=[keys[i] for i in warm]
            )
        before = set(endpoint.cache._entries.keys())
        batcher = endpoint.batcher
        batches, batched = batcher.batches, batcher.batched_requests
        out = server.predict_many("score", rows, keys=keys)
        misses = k - len(warm)
        assert batcher.batches - batches == -(-misses // 64)
        assert batcher.batched_requests - batched == misses
        scored = {
            (versions[i], rows[i].tobytes())
            for i in range(k) if i not in set(warm)
        }
        assert set(endpoint.cache._entries.keys()) == before | scored
        assert len(before) == len(warm) and not before & scored
        alone = [
            compile_linear_scorer(models[versions[i]])(rows[i:i + 1])[0]
            for i in range(k)
        ]
        assert out.tobytes() == np.array(alone).tobytes()
        assert endpoint.requests == k + len(warm)

    @pytest.mark.parametrize("canary_fraction", [0.0, 0.5])
    def test_a_late_call_raises_once_and_counts_every_request(
        self, canary_fraction
    ):
        clock = FakeClock()
        server, _ = self._fleet(canary_fraction, clock=clock)
        executor = server.shard("shard-0").server
        endpoint = executor.endpoint("score")
        scorer = executor._scorer_for(
            endpoint, server.registry.get("churn", 1)
        )

        def slow(batch, **kwargs):
            clock.advance(10.0)
            return scorer(batch, **kwargs)

        executor._scorers = {
            ident: slow for ident in [("score", 1), ("score", 2)]
        }
        rows = np.random.default_rng(3).normal(size=(100, 5))
        keys = [f"k{i}" for i in range(100)]
        with pytest.raises(DeadlineExceededError) as exc_info:
            server.predict_many("score", rows, keys=keys, deadline_ms=5.0)
        assert exc_info.value.deadline_ms == 5.0
        assert endpoint.deadline_exceeded == 1
        assert endpoint.requests == 100
        assert len(endpoint.cache) == 0

    def test_an_open_loop_row_on_a_full_queue_sheds_once(self):
        server, _ = self._fleet(0.0, queue_capacity=1)
        endpoint = _endpoint(server, "score")
        X = _fit_pair()[0]
        endpoint.batcher.submit(X[:1], lambda rows: rows[:, 0], 1)
        with pytest.raises(LoadShedError):
            server.predict("score", X[1])
        assert (endpoint.batcher.shed, endpoint.shed) == (1, 1)
        assert endpoint.requests == 1
        endpoint.batcher.flush()


# ----------------------------------------------------------------------
# Registry rollout satellites
# ----------------------------------------------------------------------
class TestRegistryRollout:
    @pytest.fixture
    def registry(self):
        reg = ModelRegistry()
        reg.register("m", "v1-model")
        reg.register("m", "v2-model")
        reg.register("m", "v3-model")
        return reg

    def test_deploy_sets_prod_alias(self, registry):
        registry.deploy("m", 1)
        assert registry.aliases("m") == {"prod": 1}
        assert registry.resolve("m", "prod").version == 1

    def test_alias_crud(self, registry):
        registry.set_alias("m", "canary", 3)
        assert registry.resolve("m", "canary").version == 3
        registry.drop_alias("m", "canary")
        with pytest.raises(LifecycleError):
            registry.resolve("m", "canary")

    def test_set_prod_alias_is_deploy(self, registry):
        registry.set_alias("m", "prod", 1)
        registry.set_alias("m", "prod", 2)
        assert registry.deployed("m").version == 2

    def test_alias_validates_version(self, registry):
        with pytest.raises(LifecycleError):
            registry.set_alias("m", "canary", 99)

    def test_resolve_latest_and_int(self, registry):
        assert registry.resolve("m").version == 3
        assert registry.resolve("m", 2).version == 2

    def test_save_load_round_trips_rollout_state(self, registry, tmp_path):
        registry.deploy("m", 1)
        registry.deploy("m", 2)
        registry.set_alias("m", "canary", 3)
        path = tmp_path / "reg.json"
        registry.save(path)
        loaded = ModelRegistry.load(path)
        assert loaded.deployed("m").version == 2
        assert loaded.aliases("m") == {"prod": 2, "canary": 3}

# ----------------------------------------------------------------------
# Scoring kernel
# ----------------------------------------------------------------------
def _column_loop_scorer(model, output: str = "margin"):
    """The kernel as written before PR 20 — one interpreted multiply and
    add per column — kept as the oracle the fused kernel must equal
    bitwise."""
    columns = [(j, float(w)) for j, w in enumerate(np.ravel(model.coef_))]
    intercept = float(model.intercept_)

    def score(batch: np.ndarray) -> np.ndarray:
        scores = np.full(batch.shape[0], intercept, dtype=np.float64)
        for j, w in columns:
            scores = scores + w * batch[:, j]
        if output == "proba":
            return sigmoid(scores)
        if output == "label":
            return (sigmoid(scores) >= 0.5).astype(np.float64)
        return scores

    return score


def _mixed_magnitudes(rng, shape, specials: bool) -> np.ndarray:
    """Normals spread over 16 decades, optionally salted with NaN/±inf."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    if specials:
        salt = rng.random(shape)
        values[salt < 0.02] = np.nan
        values[(salt >= 0.02) & (salt < 0.04)] = np.inf
        values[(salt >= 0.04) & (salt < 0.06)] = -np.inf
    return values


def _bits(scores: np.ndarray) -> bytes:
    """The array's bytes with every NaN made the same NaN: which sign a
    NaN born of two NaNs carries depends on the SIMD lane that added
    them (in the column loop too), everything else is exact."""
    return np.where(np.isnan(scores), np.nan, scores).tobytes()


class TestScoringKernel:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.sampled_from(
            # the batcher's sizes, the row-block boundary, several blocks
            [0, 1, 2, 63, 64, 65, _BLOCK_ROWS - 1, _BLOCK_ROWS,
             _BLOCK_ROWS + 1, 5000]
        ),
        d=st.integers(min_value=1, max_value=24),
        extra=st.integers(min_value=0, max_value=3),
        layout=st.sampled_from(["C", "F", "strided"]),
        output=st.sampled_from(["margin", "proba", "label"]),
        specials=st.booleans(),
    )
    def test_bitwise_equal_to_the_column_loop(
        self, seed, n, d, extra, layout, output, specials
    ):
        rng = np.random.default_rng(seed)
        model = SimpleNamespace(
            coef_=_mixed_magnitudes(rng, d, False),
            intercept_=float(_mixed_magnitudes(rng, (), False)),
        )
        width = d + extra  # wider rows: the leading d columns are read
        if layout == "strided":
            batch = _mixed_magnitudes(rng, (2 * n, 2 * width), specials)
            batch = batch[::2, ::2]
        else:
            batch = np.asarray(
                _mixed_magnitudes(rng, (n, width), specials), order=layout
            )
        with np.errstate(all="ignore"):  # inf - inf, overflow in exp
            got = compile_linear_scorer(model, output)(batch)
            want = _column_loop_scorer(model, output)(batch)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert _bits(got) == _bits(want)
            # batch-size invariance: any row alone is the same bits
            if n:
                i = int(rng.integers(n))
                alone = compile_linear_scorer(model, output)(batch[i:i + 1])
                assert _bits(alone) == _bits(got[i:i + 1])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.sampled_from([1, 64, _BLOCK_ROWS + 1]),
        d=st.integers(min_value=1, max_value=24),
        specials=st.booleans(),
    )
    def test_bitwise_equal_to_the_sql_expression(self, seed, n, d, specials):
        from tests.sql_scoring import score_linear_model
        from repro.storage import Table

        rng = np.random.default_rng(seed)
        model = SimpleNamespace(
            coef_=_mixed_magnitudes(rng, d, False),
            intercept_=float(_mixed_magnitudes(rng, (), False)),
        )
        batch = _mixed_magnitudes(rng, (n, d), specials)
        names = [f"x{j}" for j in range(d)]
        table = Table.from_columns({c: batch[:, j] for j, c in enumerate(names)})
        with np.errstate(all="ignore"):
            scored = score_linear_model(table, model, feature_columns=names)
            online = compile_linear_scorer(model)(batch)
        assert _bits(scored.column("score")) == _bits(online)

    @pytest.mark.parametrize(
        # one row, a served batch, the one-block path's edge, two blocks
        "n", [1, 2, 63, 64, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
              3000],
    )
    def test_one_block_path_equals_the_row_by_row_sum(self, n):
        """A batch of at most ``_BLOCK_ROWS`` rows is one block: each
        row's score is still the sequential sum a row scored alone by
        ``np.add.accumulate`` gives, and the SQL expression's, bitwise,
        for every output and a batch wider than the model."""
        from tests.sql_scoring import score_linear_model
        from repro.storage import Table

        rng = np.random.default_rng(n)
        d = 7
        model = SimpleNamespace(
            coef_=_mixed_magnitudes(rng, d, False),
            intercept_=float(_mixed_magnitudes(rng, (), False)),
        )
        batch = _mixed_magnitudes(rng, (n, d + 3), False)
        margin = np.array([
            np.add.accumulate(np.r_[model.intercept_, model.coef_ * row[:d]])[-1]
            for row in batch
        ])
        names = [f"x{j}" for j in range(d)]
        table = Table.from_columns({c: batch[:, j] for j, c in enumerate(names)})
        sql = score_linear_model(table, model, feature_columns=names)
        with np.errstate(over="ignore"):  # exp of a huge margin
            for output, want in (
                ("margin", margin),
                ("proba", sigmoid(margin)),
                ("label", (sigmoid(margin) >= 0.5).astype(np.float64)),
            ):
                got = compile_linear_scorer(model, output)(batch)
                assert got.shape == (n,) and got.dtype == np.float64
                assert got.tobytes() == want.tobytes(), output
        assert sql.column("score").tobytes() == margin.tobytes()

    def test_temporaries_are_one_block_however_tall_the_input(self):
        rng = np.random.default_rng(0)
        model = SimpleNamespace(coef_=rng.normal(size=16), intercept_=0.5)
        batch = rng.normal(size=(200_000, 16))
        score = compile_linear_scorer(model)
        score(batch[:8])
        tracemalloc.start()
        try:
            out = score(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the output, per block: the products, the terms, their
        # running sums, and as much again for numpy's iteration buffers
        # (the column loop held a second full-height array: 1.6 MB)
        block = 4 * _BLOCK_ROWS * (16 + 1) * 8
        assert peak - out.nbytes < block

    def test_a_row_wider_than_the_model_is_legal(self, model_pair):
        """E28's ``loop_churn`` serves 10-wide feature rows to an
        8-weight model: the kernel reads the leading columns."""
        X, _, m1, _ = model_pair
        registry = ModelRegistry()
        registry.register("churn", m1)
        server = _one_shard(registry)
        server.create_endpoint("score", "churn")
        server.promote("score", 1)
        wide = np.concatenate([X[3], [7.0, -7.0]])
        assert server.predict("score", wide) == server.predict("score", X[3])

    @pytest.mark.parametrize("door", DOORS)
    def test_a_row_narrower_than_the_model_is_a_typed_error(
        self, served, door
    ):
        server, _, X = served
        with pytest.raises(ServingError, match=r"\(1, 4\).* 5 weights"):
            _ask(server, door, "score", X[0, :4])  # IndexError before PR 20
        with pytest.raises(ServingError, match="narrower"):
            compile_linear_scorer(server.registry.get("churn", 1).model)(X[0])
        with pytest.raises(ServingError, match=rf"{door} expects a \d-D"):
            _ask(server, door, "score", X[:2])  # "narrower" before the check
        with pytest.raises(ServingError, match=rf"{door} expects a numeric"):
            _ask(server, door, "score", np.array(["a"] * 5))  # ValueError


# ----------------------------------------------------------------------
# Model server
# ----------------------------------------------------------------------
class TestModelServer:
    def test_batched_bit_identical_to_single(self, served):
        server, _, X = served
        keys = [f"u{i}" for i in range(64)]
        batched = server.predict_many("score", X[:64], keys=keys)
        # fresh endpoint so the cache cannot mask the single-row path
        server.create_endpoint("single", "churn", cache_enabled=False)
        singles = np.array(
            [server.predict("single", X[i]) for i in range(64)]
        )
        assert np.array_equal(batched, singles)

    def test_agrees_with_indb_scoring(self, served):
        """The online scorer and the SQL scoring expression are the same
        compiled affine form — bit-identical outputs."""
        from tests.sql_scoring import score_linear_model
        from repro.storage import Table

        server, registry, X = served
        table = Table.from_columns(
            {f"x{i}": X[:32, i] for i in range(X.shape[1])}
        )
        scored = score_linear_model(
            table,
            registry.deployed("churn"),
            feature_columns=[f"x{i}" for i in range(X.shape[1])],
        )
        online = server.predict_many("score", X[:32])
        assert np.array_equal(scored.column("score"), online)

    def test_proba_output(self, model_pair):
        X, _, m1, _ = model_pair
        registry = ModelRegistry()
        registry.register("churn", m1)
        server = _one_shard(registry)
        server.create_endpoint("p", "churn", output="proba")
        server.promote("p", 1)
        got = server.predict_many("p", X[:16])
        assert np.all((got >= 0.0) & (got <= 1.0))
        np.testing.assert_allclose(got, m1.predict_proba(X[:16]), atol=1e-12)

    def test_cache_hits_and_promote_invalidation(self, served):
        server, _, X = served
        row = X[0]
        first = server.predict("score", row, key="u0")
        again = server.predict("score", row, key="u0")
        endpoint = _endpoint(server, "score")
        assert again == first
        assert endpoint.cache.stats.hits == 1
        # Promote v2: cached v1 predictions must not survive.
        server.promote("score", 2)
        assert len(endpoint.cache) == 0
        assert endpoint.cache.stats.invalidations == 1
        v2 = server.predict("score", row, key="u0")
        assert v2 != first  # different model, different score
        assert endpoint.cache.stats.misses == 2

    def test_hash_collision_never_serves_another_rows_score(
        self, served, monkeypatch
    ):
        """A hit is decided on the row's full bytes: with every row
        forced onto one ``feature_hash``, each still gets its own score."""
        import repro.serving.cache
        import repro.serving.server

        for module in (repro.serving.cache, repro.serving.server):
            monkeypatch.setattr(
                module, "feature_hash", lambda row: 7, raising=False
            )
        server, _, X = served
        server.create_endpoint("oracle", "churn", cache_enabled=False)
        want = np.array([server.predict("oracle", X[i]) for i in range(4)])
        assert len(set(want)) == 4
        got = np.array([server.predict("score", X[i]) for i in range(2)])
        assert np.array_equal(got, want[:2])
        # second pass: rows 0-1 are cache hits, rows 2-3 are new
        assert np.array_equal(server.predict_many("score", X[:4]), want)
        assert _endpoint(server, "score").cache.stats.hits == 2

    def test_canary_split_matches_router_exactly(self, served):
        server, _, X = served
        server.set_canary("score", 2, fraction=0.25)
        endpoint = _endpoint(server, "score")
        keys = [f"user-{i}" for i in range(400)]
        rows = np.tile(X[0], (400, 1))
        server.predict_many("score", rows, keys=keys)
        expected_canary = [
            k for k in keys if endpoint.router.routes_to_canary(k)
        ]
        assert endpoint.canary_requests == len(expected_canary)
        assert endpoint.stable_requests == 400 - len(expected_canary)
        # and the canary keys really got v2's answer
        v1 = server.registry.get("churn", 1).model
        v2 = server.registry.get("churn", 2).model
        k = expected_canary[0]
        idx = keys.index(k)
        got = server.predict("score", rows[idx], key=k)
        assert got == compile_linear_scorer(v2)(rows[idx : idx + 1])[0]
        assert got != compile_linear_scorer(v1)(rows[idx : idx + 1])[0]

    def test_clear_canary(self, served):
        server, _, X = served
        server.set_canary("score", 2, fraction=1.0)
        server.clear_canary("score")
        endpoint = _endpoint(server, "score")
        before = endpoint.canary_requests
        server.predict("score", X[0], key="user-1")
        assert endpoint.canary_requests == before

    def test_unkeyed_requests_never_canary(self, served):
        server, _, X = served
        server.set_canary("score", 2, fraction=1.0)
        endpoint = _endpoint(server, "score")
        server.predict("score", X[0])  # no key
        assert endpoint.canary_requests == 0

    @pytest.mark.parametrize("door", DOORS)
    def test_deadline_exceeded(self, model_pair, door):
        X, _, m1, _ = model_pair

        def slow(batch):
            time.sleep(0.02)
            return batch[:, 0]

        registry = ModelRegistry()
        registry.register("churn", _PredictsWith(slow))
        server = _one_shard(registry)
        server.create_endpoint(
            "slow", "churn", output="predict", cache_enabled=False
        )
        server.promote("slow", 1)
        with pytest.raises(DeadlineExceededError):
            _ask(server, door, "slow", X[0], deadline_ms=1.0)
        assert _endpoint(server, "slow").deadline_exceeded == 1

    @pytest.mark.parametrize("door", DOORS)
    def test_deadline_expired_while_queued(self, model_pair, door):
        """A request that expires behind a slow batch is one counted
        miss carrying the caller's budget, never the batcher's
        placeholder — and nothing late is returned or cached."""
        X, _, m1, _ = model_pair
        clock = FakeClock()

        def slow(batch):
            clock.advance(10.0)
            return batch[:, 0]

        registry = ModelRegistry()
        registry.register("churn", _PredictsWith(slow))
        server = _one_shard(registry, clock=clock)
        server.create_endpoint(
            "slow", "churn", output="predict", max_batch_size=1
        )
        server.promote("slow", 1)
        endpoint = _endpoint(server, "slow")
        ahead = endpoint.batcher.submit(X[1:2], slow, 1)  # its own batch of 1
        with pytest.raises(DeadlineExceededError) as exc_info:
            _ask(server, door, "slow", X[0], deadline_ms=5.0)
        assert ahead.done and endpoint.batcher.batches == 2
        assert exc_info.value.deadline_ms == 5.0
        assert endpoint.deadline_exceeded == 1
        assert len(endpoint.cache) == 0

    @settings(max_examples=25, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=299),  # row of X
                st.one_of(st.none(), st.integers(0, 30)),  # request key
            ),
            min_size=1,
            max_size=48,
            unique_by=lambda request: request[0],
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        queue_capacity=st.integers(min_value=1, max_value=8),
        shed_at=st.one_of(st.none(), st.integers(min_value=0, max_value=47)),
    )
    def test_both_doors_are_one_path(
        self, requests, fraction, queue_capacity, shed_at
    ):
        """``predict`` in a loop and one ``predict_many`` over the same
        requests, on twin servers: bitwise-equal answers, equal ledgers.
        Rows are distinct because ``predict_many`` fills the cache after
        its drain, so a repeat inside one call cannot hit (and the
        batcher's ``batches`` legitimately differ). With ``shed_at`` an
        injected ``serving.admission`` fault sheds that row: the loop
        stops there as the call raises there, and the call's ledger —
        written once, on that exit path — equals the loop's."""
        X, _, m1, m2 = _fit_pair()
        registry = ModelRegistry()
        registry.register("churn", m1)
        registry.register("churn", m2)
        twins = []
        for _ in DOORS:
            server = _one_shard(registry)
            server.create_endpoint(
                "score", "churn", queue_capacity=queue_capacity
            )
            server.promote("score", 1)
            server.set_canary("score", 2, fraction)
            twins.append(server)
        rows = X[[i for i, _ in requests]]
        keys = [key for _, key in requests]
        if shed_at is not None and shed_at >= len(requests):
            shed_at = None

        def chaos():
            after = len(requests) if shed_at is None else shed_at
            return ChaosContext(FaultPlan(seed=3).inject(
                "serving.admission", rate=1.0, max_faults=1, after=after
            ))

        looped = []
        with chaos():
            for row, key in zip(rows, keys):
                try:
                    looped.append(twins[0].predict("score", row, key=key))
                except LoadShedError:
                    break
        with chaos():
            try:
                batched = twins[1].predict_many("score", rows, keys=keys)
            except LoadShedError as exc:
                assert exc.reason == "chaos" and shed_at is not None
                batched = np.array([])
        one, many = (_endpoint(server, "score") for server in twins)
        assert one.counts.as_dict() == many.counts.as_dict()
        assert one.batcher.shed == many.batcher.shed == 0
        if shed_at is not None:
            assert one.requests == shed_at + 1 and one.shed == 1
            # the refused call probed and queued nothing
            assert many.cache.stats.as_dict()["misses"] == len(many.cache) == 0
            return
        assert np.array(looped).tobytes() == batched.tobytes()
        assert one.requests == len(requests)
        assert one.cache.stats.as_dict() == many.cache.stats.as_dict()

    def test_unknown_endpoint_and_duplicate(self, served):
        server, _, _ = served
        with pytest.raises(ServingError):
            server.predict("nope", np.zeros(5))
        with pytest.raises(ServingError):
            server.create_endpoint("score", "churn")

    def test_stats_shape(self, served):
        server, _, X = served
        server.predict_many("score", X[:32], keys=[f"u{i}" for i in range(32)])
        stats = server.stats()["shards"]["shard-0"]["endpoints"]["score"]
        assert stats["requests"] == 32
        assert stats["batches"] >= 1
        assert stats["latency_ms"]["count"] >= 1
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]

    def test_obs_metrics_published(self, served):
        server, _, X = served
        server.predict("score", X[0], key="u0")
        server.predict("score", X[0], key="u0")  # cache hit
        doc = obs.report()
        counters = doc["metrics"]["counters"]
        histograms = doc["metrics"]["histograms"]
        assert counters["serving.requests"]["value"] == 2
        assert counters["serving.cache.hits"]["value"] == 1
        latency = histograms["serving.latency_ms"]
        assert latency["count"] == 2
        for pct in ("p50", "p95", "p99"):
            assert pct in latency

    def test_threaded_concurrent_clients(self, served):
        """Real threads on the synchronous door: each client's request
        is submitted, flushed and waited for on its own thread, and one
        client's flush may score another's."""
        server, _, X = served
        server.create_endpoint("live", "churn", cache_enabled=False)
        expected = server.predict_many("score", X[:40])
        results: dict[int, float] = {}
        errors: list[Exception] = []

        def client(i: int) -> None:
            try:
                results[i] = server.predict("live", X[i])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(40)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force handoffs inside the door
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert np.array_equal(
            np.array([results[i] for i in range(40)]), expected
        )

    def test_at_most_max_concurrency_scorer_calls_run_at_once(self):
        """2 x ``MAX_CONCURRENCY`` clients on the fleet's door, each
        request its own batch, and a model that blocks until released:
        exactly ``MAX_CONCURRENCY`` calls are ever in flight, every
        answer is right once released, and a scorer that raises hands
        its token back."""
        lock, release = threading.Lock(), threading.Event()
        in_flight, peak = [0], [0]

        def blocking(batch: np.ndarray) -> np.ndarray:
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                release.wait(10.0)
                return 2.0 * batch[:, 0]
            finally:
                with lock:
                    in_flight[0] -= 1

        def broken(batch: np.ndarray) -> np.ndarray:
            raise ValueError("scorer failed")

        registry = ModelRegistry()
        registry.register("blocking", _PredictsWith(blocking))
        registry.register("broken", _PredictsWith(broken))
        server = _one_shard(registry)
        for name in ("blocking", "broken"):
            server.create_endpoint(
                name, name, output="predict", cache_enabled=False,
                max_batch_size=1,
            )
            server.promote(name, 1)
        clients = 2 * MAX_CONCURRENCY
        answers: dict[int, float] = {}
        errors: list[Exception] = []

        def client(i: int) -> None:
            try:
                answers[i] = server.predict("blocking", np.array([i, 0.0]))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        try:
            for t in threads:
                t.start()
            waited = time.monotonic() + 10.0
            while in_flight[0] < MAX_CONCURRENCY and time.monotonic() < waited:
                time.sleep(0.001)
            time.sleep(0.1)  # the other clients are blocked on a token
        finally:
            release.set()
            for t in threads:
                t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert answers == {i: 2.0 * i for i in range(clients)}
        assert peak[0] == MAX_CONCURRENCY
        tokens = _endpoint(server, "blocking").batcher.tokens
        assert tokens.qsize() == MAX_CONCURRENCY
        with pytest.raises(ValueError, match="scorer failed"):
            server.predict("broken", np.zeros(2))
        tokens = _endpoint(server, "broken").batcher.tokens
        assert tokens.qsize() == MAX_CONCURRENCY
        server.close()

    def test_promote_during_in_flight_batches_is_atomic(self, served):
        """Promotions racing clients on the synchronous door must be
        atomic per request: every answer is bitwise one of the two
        versions' predictions — never a blend, never an error. Clients
        keep predicting (at least 100 requests each) until both
        versions have been served or a 10 s deadline passes, so the
        race does not depend on the promoter being scheduled within a
        fixed number of predictions."""
        server, _, X = served
        server.create_endpoint(
            "live", "churn", cache_enabled=False, queue_capacity=1 << 14
        )
        server.promote("live", 1)
        row = X[0]
        v1_pred = server.predict_many("score", row[None, :])[0]
        server.promote("score", 2)
        v2_pred = server.predict_many("score", row[None, :])[0]
        assert v1_pred != v2_pred

        stop = threading.Event()
        answers: list[float] = []
        errors: list[Exception] = []
        seen: set[float] = set()  # the distinct answers so far
        promotes = [0]
        deadline = time.monotonic() + 10.0

        def client() -> None:
            try:
                served = 0
                while served < 100 or (
                    len(seen) < 2 and time.monotonic() < deadline
                ):
                    answer = server.predict("live", row)
                    answers.append(answer)
                    seen.add(answer)
                    served += 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def promoter() -> None:
            version = 2
            while not stop.is_set():
                server.promote("live", version)
                promotes[0] += 1
                version = 3 - version  # alternate 2 <-> 1
                time.sleep(0.0005)

        clients = [threading.Thread(target=client) for _ in range(3)]
        rival = threading.Thread(target=promoter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force handoffs inside the door
        try:
            rival.start()
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=30.0)
        finally:
            stop.set()
            rival.join(timeout=30.0)
            sys.setswitchinterval(interval)
        evidence = (
            f"errors={[repr(e) for e in errors]} answers={set(answers)} "
            f"requests={len(answers)} promotes={promotes[0]}"
        )
        assert not errors, evidence
        assert len(answers) >= 300, evidence
        allowed = {v1_pred, v2_pred}
        assert set(answers) <= allowed, evidence
        # the race is real: both versions were actually served
        assert len(set(answers)) == 2, evidence


# ----------------------------------------------------------------------
# Chaos coverage of the serving path
# ----------------------------------------------------------------------
class TestServingChaos:
    def test_admission_faults_shed_requests(self, served):
        server, _, X = served
        plan = FaultPlan(seed=3).inject(
            "serving.admission", rate=1.0, max_faults=3
        )
        shed = 0
        with ChaosContext(plan):
            for i in range(6):
                try:
                    server.predict("score", X[i], key=f"c{i}")
                except LoadShedError:
                    shed += 1
        assert shed == 3
        assert _endpoint(server, "score").shed == 3
        assert obs.get_registry().value("serving.shed") == 3

    def test_score_faults_recovered_bit_identically(self, model_pair):
        X, _, m1, _ = model_pair
        registry = ModelRegistry()
        registry.register("churn", m1)
        clean_server = _one_shard(registry)
        clean_server.create_endpoint("s", "churn", cache_enabled=False)
        clean_server.promote("s", 1)
        clean = clean_server.predict_many("s", X[:64])

        retry = RetryPolicy(max_attempts=8, backoff_base=0.0, seed=1)
        chaotic_server = _one_shard(registry, retry=retry)
        chaotic_server.create_endpoint("s", "churn", cache_enabled=False)
        plan = FaultPlan(seed=13).inject("serving.score", rate=0.3)
        with ChaosContext(plan) as chaos:
            chaotic = chaotic_server.predict_many("s", X[:64])
        assert chaos.injected_at("serving.score") > 0
        assert np.array_equal(clean, chaotic)

    def test_score_fault_without_retry_propagates(self, served):
        server, _, X = served
        server.create_endpoint("raw", "churn", cache_enabled=False)
        plan = FaultPlan(seed=5).inject("serving.score", rate=1.0, max_faults=1)
        from repro.errors import InjectedFault

        with ChaosContext(plan):
            with pytest.raises(InjectedFault):
                server.predict("raw", X[0])

    @pytest.mark.parametrize("door", DOORS)
    def test_straggler_fault_misses_deadline(self, served, door):
        server, _, X = served
        server.create_endpoint("tight", "churn", cache_enabled=False)
        plan = FaultPlan(seed=9).inject(
            "serving.score", rate=1.0, mode="sleep", sleep_seconds=0.05
        )
        with ChaosContext(plan):
            with pytest.raises(DeadlineExceededError):
                _ask(server, door, "tight", X[0], deadline_ms=5.0)
        assert _endpoint(server, "tight").deadline_exceeded == 1


# ----------------------------------------------------------------------
# indb scoring satellite: registry entries score directly
# ----------------------------------------------------------------------
class TestRegistryToSqlScoring:
    def test_model_version_with_recorded_columns(self, model_pair):
        from tests.sql_scoring import score_linear_model, score_probability
        from repro.storage import Table

        X, _, m1, _ = model_pair
        columns = [f"x{i}" for i in range(X.shape[1])]
        registry = ModelRegistry()
        registry.register("churn", m1, params={"feature_columns": columns})
        registry.deploy("churn", 1)
        table = Table.from_columns(
            {name: X[:20, i] for i, name in enumerate(columns)}
        )
        scored = score_linear_model(table, registry.deployed("churn"))
        direct = score_linear_model(table, m1, feature_columns=columns)
        assert np.array_equal(
            scored.column("score"), direct.column("score")
        )
        proba = score_probability(table, registry.deployed("churn"))
        assert np.all(
            (proba.column("probability") >= 0)
            & (proba.column("probability") <= 1)
        )

    def test_model_version_without_model_object(self):
        from tests.sql_scoring import score_linear_model
        from repro.errors import ModelError
        from repro.lifecycle.registry import ModelVersion
        from repro.storage import Table

        entry = ModelVersion(name="m", version=1, model=None)
        table = Table.from_columns({"x0": [1.0]})
        with pytest.raises(ModelError, match="no model object"):
            score_linear_model(table, entry, feature_columns=["x0"])


# ----------------------------------------------------------------------
# Histogram percentiles (obs extension the serving layer reads)
# ----------------------------------------------------------------------
class TestLatencyPercentiles:
    def test_nearest_rank(self):
        h = obs.Histogram("t")
        for v in range(1, 101):
            h.observe(float(v))
        doc = h.as_dict()
        assert (doc["p50"], doc["p95"], doc["p99"]) == (50.0, 95.0, 99.0)
        assert (doc["min"], doc["max"]) == (1.0, 100.0)

    def test_reservoir_keeps_recent_window(self):
        h = obs.Histogram("t")
        for v in range(obs.RESERVOIR_SIZE + 100):
            h.observe(float(v))
        doc = h.as_dict()
        # the first 100 observations rolled out of the window [100, 611]
        assert doc["p50"] == 100.0 + obs.RESERVOIR_SIZE // 2 - 1
        assert doc["count"] == obs.RESERVOIR_SIZE + 100  # totals still exact
        assert doc["min"] == 0.0

    def test_as_dict_includes_percentiles(self):
        obs.get_registry().observe("t.lat", 5.0)
        doc = obs.get_registry().as_dict()["histograms"]["t.lat"]
        assert doc["p50"] == 5.0 and doc["p95"] == 5.0 and doc["p99"] == 5.0


class _RecordedStamps:
    """A stand-in for the histograms' global stamp sequence that logs
    which thread drew each stamp, in draw order."""

    def __init__(self):
        self._lock = threading.Lock()
        self.log: list[tuple[int, int]] = []  # (stamp, thread ident)

    def __iter__(self):
        return self

    def __next__(self) -> int:
        with self._lock:
            self.log.append((len(self.log), threading.get_ident()))
            return self.log[-1][0]


class TestPulledLatency:
    """A served call observes its endpoint's histogram once, into its
    thread's cell; the registry merges every endpoint's cells into
    ``serving.latency_ms`` when read."""

    def test_a_served_call_writes_its_latency_once(self, served, monkeypatch):
        server, _, X = served
        writes, lookups = [], []
        observe, lookup = obs.Histogram.observe, obs.MetricsRegistry.histogram

        def counted_observe(histogram, value):
            writes.append(value)
            observe(histogram, value)

        def counted_lookup(registry, name):
            lookups.append(name)
            return lookup(registry, name)

        monkeypatch.setattr(obs.Histogram, "observe", counted_observe)
        monkeypatch.setattr(obs.MetricsRegistry, "histogram", counted_lookup)
        server.predict("score", X[0], key="u0")
        assert len(writes) == 1 and lookups == []
        doc = obs.report()["metrics"]["histograms"]["serving.latency_ms"]
        assert doc["count"] == doc["updates"] == 1
        assert doc["min"] == doc["max"] == doc["p99"] == writes[0]

    def test_threads_a_reader_and_a_reset_lose_nothing(
        self, model_pair, monkeypatch
    ):
        """4 threads x 2 000 calls over two endpoints, a reader thread in
        ``obs.report()`` throughout and a reset after 500 calls a thread:
        at quiescence the merged histogram equals a list oracle of the
        calls since the reset, its window the 512 latest stamps."""
        from repro.obs import metrics
        from repro.serving.server import ModelServer

        X, _, m1, _ = model_pair
        registry = ModelRegistry()
        registry.register("churn", m1)
        registry.deploy("churn", 1)
        local = threading.local()  # each call reads 0.0, then its latency

        def clock() -> float:
            return next(local.readings)

        server = ModelServer(registry, clock=clock)
        for name in ("a", "b"):
            server.create_endpoint(name, "churn", cache_enabled=False)
        stamps = _RecordedStamps()
        monkeypatch.setattr(metrics, "_STAMPS", stamps)
        threads_n, before, after = 4, 500, 1500
        phase = threading.Barrier(threads_n + 1)
        observed: dict[int, list[float]] = {}  # ident -> latencies, in ms
        errors: list[BaseException] = []

        def latency(t: int, i: int) -> float:
            return ((t * 7919 + i * 104729) % 10007 + 1) * 1e-6

        def client(t: int) -> None:
            mine = observed.setdefault(threading.get_ident(), [])
            try:
                for i in range(before + after):
                    if i == before:
                        phase.wait()  # the main thread resets here
                        phase.wait()
                    local.readings = iter((0.0, latency(t, i)))
                    server.predict("ab"[i % 2], X[i % len(X)])
                    mine.append((latency(t, i) - 0.0) * 1000.0)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
                phase.abort()

        done = threading.Event()

        def reader() -> None:
            while not done.wait(0.002):
                obs.report()

        clients = [
            threading.Thread(target=client, args=(t,))
            for t in range(threads_n)
        ]
        watcher = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the writers' cell updates
        try:
            for thread in [watcher, *clients]:
                thread.start()
            phase.wait(timeout=60.0)
            obs.get_registry().reset()
            phase.wait(timeout=60.0)
        finally:
            for thread in clients:
                thread.join(timeout=60.0)
            done.set()
            watcher.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in [watcher, *clients])
        # each thread's calls since the reset drew its last ``after`` stamps
        since: list[tuple[int, float]] = []
        for ident, values in observed.items():
            drawn = [stamp for stamp, who in stamps.log if who == ident]
            since += zip(drawn[-after:], values[-after:])
        window = sorted(value for _, value in sorted(since)[-512:])
        doc = obs.report()["metrics"]
        latency_doc = doc["histograms"]["serving.latency_ms"]
        values = [value for _, value in since]
        assert latency_doc["count"] == latency_doc["updates"] == len(since)
        assert len(since) == threads_n * after
        assert doc["counters"]["serving.requests"]["value"] == len(since)
        assert (latency_doc["min"], latency_doc["max"]) == (
            min(values), max(values)
        )
        for q in (50, 95, 99):
            rank = max(1, math.ceil(q / 100.0 * len(window)))
            assert latency_doc[f"p{q}"] == window[rank - 1], q
        # an endpoint's own stats read since the reset too
        for name in ("a", "b"):
            stats = server.endpoint(name).stats()["latency_ms"]
            assert stats["count"] == threads_n * after // 2
