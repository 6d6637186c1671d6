"""Unit and property tests for the online serving subsystem.

Covers the four serving pillars (router, cache, batcher, server), the
registry rollout satellites (aliases, undeploy, rollback), cache
invalidation on promote/rollback, the hypothesis ordering property of
the micro-batcher, and the chaos coverage of the serving path
(admission shedding, scoring retries, deadline misses).
"""

from __future__ import annotations

import functools
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
    ModelServer,
    PredictionCache,
    compile_linear_scorer,
    feature_hash,
)
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
    server = ModelServer(registry)
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

    def test_split_partitions(self):
        keys = [f"k{i}" for i in range(100)]
        stable, canary = CanaryRouter(0.25, 5).split(keys)
        assert sorted(stable + canary) == sorted(keys)
        assert 0 < len(canary) < len(keys)

    def test_invalid_fraction(self):
        with pytest.raises(ServingError):
            CanaryRouter(1.5)


# ----------------------------------------------------------------------
# Prediction cache
# ----------------------------------------------------------------------
class TestPredictionCache:
    def test_hit_after_put(self):
        cache = PredictionCache(capacity=8)
        cache.put("ep", 1, 42, 0.5)
        assert cache.get("ep", 1, 42) == 0.5
        assert cache.stats.hits == 1

    def test_version_in_key(self):
        cache = PredictionCache(capacity=8)
        cache.put("ep", 1, 42, 0.5)
        assert cache.get("ep", 2, 42) is None  # other version never hits

    def test_lru_eviction(self):
        cache = PredictionCache(capacity=2)
        cache.put("ep", 1, 1, 0.1)
        cache.put("ep", 1, 2, 0.2)
        assert cache.get("ep", 1, 1) == 0.1  # touch 1 -> 2 becomes LRU
        cache.put("ep", 1, 3, 0.3)
        assert cache.get("ep", 1, 2) is None
        assert cache.stats.evictions == 1

    def test_invalidate_endpoint_only(self):
        cache = PredictionCache(capacity=8)
        cache.put("a", 1, 1, 0.1)
        cache.put("a", 2, 2, 0.2)
        cache.put("b", 1, 1, 0.3)
        assert cache.invalidate("a") == 2
        assert cache.get("b", 1, 1) == 0.3
        assert cache.stats.invalidations == 2

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


class TestMicroBatcher:
    def test_fifo_prefix_drain(self):
        b = MicroBatcher("ep", max_batch_size=3)
        batches = []
        score = _recording(_affine(2.0), batches)
        pendings = [
            b.submit(np.array([float(i)]), score, version=1) for i in range(7)
        ]
        b.flush()
        assert batches == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0]]
        assert all(p.done for p in pendings)
        assert [p.result for p in pendings] == [2.0 * i for i in range(7)]

    def test_sheds_at_capacity(self):
        b = MicroBatcher("ep", max_batch_size=4, queue_capacity=2)
        b.submit(np.array([1.0]), _affine(1.0), 1)
        b.submit(np.array([2.0]), _affine(1.0), 1)
        with pytest.raises(LoadShedError) as exc:
            b.submit(np.array([3.0]), _affine(1.0), 1)
        assert exc.value.queue_depth == 2
        assert b.shed == 1
        b.flush()

    def test_mixed_versions_in_one_batch(self):
        b = MicroBatcher("ep", max_batch_size=8)
        p1 = b.submit(np.array([1.0]), _affine(10.0), version=1)
        p2 = b.submit(np.array([1.0]), _affine(-1.0), version=2)
        p3 = b.submit(np.array([2.0]), _affine(10.0), version=1)
        assert b.flush() == 3
        assert (p1.result, p2.result, p3.result) == (10.0, -1.0, 20.0)
        assert b.batches == 1  # one drain, grouped internally

    def test_scorer_error_delivered_to_requests(self):
        def broken(batch):
            raise ValueError("boom")

        b = MicroBatcher("ep", max_batch_size=4)
        good = b.submit(np.array([1.0]), _affine(3.0), version=1)
        bad = b.submit(np.array([1.0]), broken, version=2)
        b.flush()
        assert good.result == 3.0
        with pytest.raises(ValueError, match="boom"):
            bad.wait(0.1)

    def test_expired_request_not_scored(self):
        clock = FakeClock()
        b = MicroBatcher("ep", max_batch_size=4, clock=clock)
        seen = []

        def recording(batch):
            seen.extend(batch[:, 0].tolist())
            return batch[:, 0]

        expired = b.submit(np.array([1.0]), recording, 1, deadline_at=5.0)
        alive = b.submit(np.array([2.0]), recording, 1, deadline_at=50.0)
        clock.advance(10.0)
        b.flush()
        assert seen == [2.0]
        assert alive.result == 2.0
        with pytest.raises(DeadlineExceededError):
            expired.wait(0.1)

    def test_threaded_worker_drains(self):
        b = MicroBatcher("ep", max_batch_size=8, max_delay_ms=1.0)
        b.start()
        try:
            pendings = [
                b.submit(np.array([float(i)]), _affine(1.0), 1)
                for i in range(20)
            ]
            results = [p.wait(timeout=5.0) for p in pendings]
            assert results == [float(i) for i in range(20)]
        finally:
            b.stop()
        assert not b.running

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.floats(
                    min_value=-50.0,
                    max_value=50.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(min_value=1, max_value=2),  # version
                st.booleans(),  # drain one batch after this arrival?
            ),
            min_size=1,
            max_size=40,
        ),
        batch_size=st.integers(min_value=1, max_value=5),
    )
    def test_ordering_property(self, ops, batch_size):
        """Random arrival interleavings: every response lands with its
        own request (right row, right version's scorer) and drains
        complete requests FIFO within the endpoint."""
        seen = {1: [], 2: []}
        scorers = {
            1: _recording(_affine(2.0, 1.0), seen[1]),
            2: _recording(_affine(-3.0), seen[2]),
        }
        expected = {1: lambda v: v * 2.0 + 1.0, 2: lambda v: v * -3.0}
        b = MicroBatcher("prop", max_batch_size=batch_size)
        submitted = []
        for value, version, drain in ops:
            submitted.append(
                (b.submit(np.array([value]), scorers[version], version),
                 value, version)
            )
            if drain:
                b.flush()
                assert all(p.done for p, _, _ in submitted)
        b.flush()
        for pending, value, version in submitted:
            assert pending.done
            assert pending.result == expected[version](value)
        # FIFO: each version's rows reach its scorer in arrival order,
        # at most one batch at a time
        for version, calls in seen.items():
            assert all(len(rows) <= batch_size for rows in calls)
            assert [v for rows in calls for v in rows] == [
                value for _, value, ver in submitted if ver == version
            ]


class TestDrainCompletesEveryRequest:
    """Whatever goes wrong with a popped batch is delivered to its
    requests as a typed error; the drain and its worker survive."""

    def test_ragged_batch_fails_its_requests_inline(self):
        b = MicroBatcher("ep", max_batch_size=8)
        narrow = b.submit(np.array([1.0, 2.0]), _affine(1.0), 1)
        wide = b.submit(np.array([1.0, 2.0, 3.0]), _affine(1.0), 1)
        other = b.submit(np.array([5.0]), _affine(2.0), 2)
        assert b.flush() == 3  # raised ValueError before PR 20
        assert narrow.done and wide.done and other.done
        for pending in (narrow, wide):
            with pytest.raises(ServingError, match=r"\(2,\), \(3,\)"):
                pending.wait(0.1)
        assert other.wait(0.1) == 10.0  # the other group is unharmed
        assert b.depth() == 0 and b.batches == 1

    def test_ragged_batch_leaves_the_worker_alive(self):
        # the window is long enough for both rows to share one batch
        b = MicroBatcher("ep", max_batch_size=2, max_delay_ms=200.0)
        b.start()
        try:
            narrow = b.submit(np.array([1.0, 2.0]), _affine(1.0), 1)
            wide = b.submit(np.array([1.0, 2.0, 3.0]), _affine(1.0), 1)
            for pending in (narrow, wide):
                with pytest.raises(ServingError, match="differ in shape"):
                    pending.wait(5.0)
            assert b.running  # the worker died silently before PR 20
            after = b.submit(np.array([4.0]), _affine(3.0), 1)
            assert after.wait(5.0) == 12.0
        finally:
            b.stop()

    def test_ragged_row_through_the_server_door(self, served):
        server, _, X = served
        endpoint = server.endpoint("score")
        scorer = server._scorer_for(endpoint, server.registry.get("churn", 1))
        queued = endpoint.batcher.submit(np.ones(9), scorer, 1)
        with pytest.raises(ServingError, match="differ in shape"):
            server.predict("score", X[0])
        assert queued.done
        assert server.predict("score", X[1]) == compile_linear_scorer(
            server.registry.get("churn", 1).model
        )(X[1:2])[0]

    def test_misshapen_scores_fail_the_group(self):
        b = MicroBatcher("ep")
        pendings = [
            b.submit(np.array([float(i)]), lambda batch: batch, 1)  # (n, 1)
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
        pending = b.submit(np.array([4.0]), _affine(2.0), 1)
        assert not pending.done
        with pytest.raises(TimeoutError):
            pending.wait(0.01)
        assert not pending.done  # a timed-out wait completes nothing
        b.flush()
        assert pending.done
        assert pending.wait() == pending.wait(0.0) == 8.0

    def test_done_flips_exactly_at_completion(self):
        seen = []
        b = MicroBatcher("ep")

        def scorer(batch):
            seen.append(pending.done)  # scored, not yet completed
            return batch[:, 0]

        pending = b.submit(np.array([1.0]), scorer, 1)
        b.flush()
        assert seen == [False] and pending.done

    def test_two_waiters_on_one_handle_both_wake(self):
        b = MicroBatcher("ep")
        pending = b.submit(np.array([3.0]), _affine(5.0), 1)
        waiting = threading.Barrier(3)
        got: list[float] = []

        def waiter() -> None:
            waiting.wait(timeout=5.0)
            got.append(pending.wait(5.0))

        threads = [threading.Thread(target=waiter) for _ in range(2)]
        for t in threads:
            t.start()
        waiting.wait(timeout=5.0)
        time.sleep(0.05)  # both are (almost surely) blocked by now
        b.flush()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        assert got == [15.0, 15.0]

    def test_every_waiter_gets_its_own_answer_under_contention(self):
        threads_n, each = 8, 500
        b = MicroBatcher("ep", max_batch_size=16, max_delay_ms=0.2)
        got: dict[int, list[float]] = {}
        errors: list[Exception] = []

        def client(t: int) -> None:
            try:
                got[t] = [
                    b.submit(
                        np.array([float(t * each + i)]), _affine(2.0, 1.0), 1
                    ).wait(10.0)
                    for i in range(each)
                ]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force handoffs inside the handshake
        b.start()
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
            b.stop()
        assert not errors
        for t in range(threads_n):
            assert got[t] == [
                2.0 * (t * each + i) + 1.0 for i in range(each)
            ]
        assert b.batched_requests == threads_n * each

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
        assert server.endpoint("cold").batcher.batches == 1000

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
        server = ModelServer(registry)
        server.create_endpoint("g", "churn", output="predict")
        server.promote("g", 1)
        row = X[7].copy()
        assert _ask(server, door, "g", row) == X[7, 0] + 1.0
        assert np.array_equal(row, X[7])
        assert seen == [(np.dtype(np.float64), (1, X.shape[1]), True, True)]


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
        from repro.indb.scoring import score_linear_model
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
        server = ModelServer(registry)
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
        from repro.indb.scoring import score_linear_model
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
        server = ModelServer(registry)
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
        endpoint = server.endpoint("score")
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
        assert server.endpoint("score").cache.stats.hits == 2

    def test_canary_split_matches_router_exactly(self, served):
        server, _, X = served
        server.set_canary("score", 2, fraction=0.25)
        endpoint = server.endpoint("score")
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
        endpoint = server.endpoint("score")
        before = endpoint.canary_requests
        server.predict("score", X[0], key="user-1")
        assert endpoint.canary_requests == before

    def test_unkeyed_requests_never_canary(self, served):
        server, _, X = served
        server.set_canary("score", 2, fraction=1.0)
        endpoint = server.endpoint("score")
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
        server = ModelServer(registry)
        server.create_endpoint(
            "slow", "churn", output="predict", cache_enabled=False
        )
        server.promote("slow", 1)
        with pytest.raises(DeadlineExceededError):
            _ask(server, door, "slow", X[0], deadline_ms=1.0)
        assert server.endpoint("slow").deadline_exceeded == 1

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
        server = ModelServer(registry, clock=clock)
        server.create_endpoint(
            "slow", "churn", output="predict", max_batch_size=1
        )
        server.promote("slow", 1)
        endpoint = server.endpoint("slow")
        ahead = endpoint.batcher.submit(X[1], slow, 1)  # its own batch of 1
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
    )
    def test_both_doors_are_one_path(self, requests, fraction, queue_capacity):
        """``predict`` in a loop and one ``predict_many`` over the same
        requests, on twin servers: bitwise-equal answers, equal ledgers.
        Rows are distinct because ``predict_many`` fills the cache after
        its drain, so a repeat inside one call cannot hit (and the
        batcher's ``batches`` legitimately differ)."""
        X, _, m1, m2 = _fit_pair()
        registry = ModelRegistry()
        registry.register("churn", m1)
        registry.register("churn", m2)
        twins = []
        for _ in DOORS:
            server = ModelServer(registry)
            server.create_endpoint(
                "score", "churn", queue_capacity=queue_capacity
            )
            server.promote("score", 1)
            server.set_canary("score", 2, fraction)
            twins.append(server)
        rows = X[[i for i, _ in requests]]
        keys = [key for _, key in requests]
        looped = np.array([
            twins[0].predict("score", row, key=key)
            for row, key in zip(rows, keys)
        ])
        batched = twins[1].predict_many("score", rows, keys=keys)
        assert looped.tobytes() == batched.tobytes()
        one, many = (server.endpoint("score") for server in twins)
        assert one.counts.as_dict() == many.counts.as_dict()
        assert one.requests == len(requests)
        assert one.cache.stats.as_dict() == many.cache.stats.as_dict()
        assert one.batcher.shed == many.batcher.shed == 0

    def test_unknown_endpoint_and_duplicate(self, served):
        server, _, _ = served
        with pytest.raises(ServingError):
            server.predict("nope", np.zeros(5))
        with pytest.raises(ServingError):
            server.create_endpoint("score", "churn")

    def test_stats_shape(self, served):
        server, _, X = served
        server.predict_many("score", X[:32], keys=[f"u{i}" for i in range(32)])
        stats = server.stats()["score"]
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
        server, _, X = served
        server.create_endpoint(
            "live", "churn", max_delay_ms=5.0, cache_enabled=False
        )
        server.start("live")
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
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        assert np.array_equal(
            np.array([results[i] for i in range(40)]), expected
        )

    def test_promote_during_in_flight_batches_is_atomic(self, served):
        """Promotions racing a threaded batcher must be atomic per
        request: every answer is bitwise one of the two versions'
        predictions — never a blend, never an error."""
        server, _, X = served
        server.create_endpoint(
            "live",
            "churn",
            max_delay_ms=1.0,
            cache_enabled=False,
            queue_capacity=1 << 14,
        )
        server.promote("live", 1)
        server.start("live")
        row = X[0]
        v1_pred = server.predict_many("score", row[None, :])[0]
        server.promote("score", 2)
        v2_pred = server.predict_many("score", row[None, :])[0]
        assert v1_pred != v2_pred

        stop = threading.Event()
        answers: list[float] = []
        errors: list[Exception] = []

        def client() -> None:
            try:
                for _ in range(300):
                    answers.append(server.predict("live", row))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                stop.set()

        def promoter() -> None:
            version = 2
            while not stop.is_set():
                server.promote("live", version)
                version = 3 - version  # alternate 2 <-> 1
                time.sleep(0.0005)

        threads = [
            threading.Thread(target=client),
            threading.Thread(target=promoter),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert len(answers) == 300
        allowed = {v1_pred, v2_pred}
        assert set(answers) <= allowed
        # the race is real: both versions were actually served
        assert len(set(answers)) == 2


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
        assert server.endpoint("score").shed == 3
        assert obs.get_registry().value("serving.shed") == 3

    def test_score_faults_recovered_bit_identically(self, model_pair):
        X, _, m1, _ = model_pair
        registry = ModelRegistry()
        registry.register("churn", m1)
        clean_server = ModelServer(registry)
        clean_server.create_endpoint("s", "churn", cache_enabled=False)
        clean_server.promote("s", 1)
        clean = clean_server.predict_many("s", X[:64])

        retry = RetryPolicy(max_attempts=8, backoff_base=0.0, seed=1)
        chaotic_server = ModelServer(registry, retry=retry)
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
        assert server.endpoint("tight").deadline_exceeded == 1


# ----------------------------------------------------------------------
# indb scoring satellite: registry entries score directly
# ----------------------------------------------------------------------
class TestRegistryToSqlScoring:
    def test_model_version_with_recorded_columns(self, model_pair):
        from repro.indb.scoring import score_linear_model, score_probability
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
        from repro.indb.scoring import score_linear_model
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
        assert h.percentile(50.0) == 50.0
        assert h.percentile(95.0) == 95.0
        assert h.percentile(99.0) == 99.0
        assert h.percentile(100.0) == 100.0
        assert h.percentile(0.0) == 1.0

    def test_reservoir_keeps_recent_window(self):
        h = obs.Histogram("t")
        for v in range(obs.RESERVOIR_SIZE + 100):
            h.observe(float(v))
        # the first 100 observations rolled out of the window
        assert h.percentile(0.0) >= 100.0
        assert h.count == obs.RESERVOIR_SIZE + 100  # totals still exact

    def test_as_dict_includes_percentiles(self):
        obs.get_registry().observe("t.lat", 5.0)
        doc = obs.get_registry().as_dict()["histograms"]["t.lat"]
        assert doc["p50"] == 5.0 and doc["p95"] == 5.0 and doc["p99"] == 5.0
