"""The shared cost-aware parallel execution engine (repro.runtime.parallel).

Covers the engine itself (cost gate, order preservation, re-entrancy,
ledger), the merge tree, and the four wired layers: UDA execution,
compressed-matrix kernels, model selection, and the simulated cluster —
each also pooled under a ``parallel.task.*`` fault plan (the CI chaos
job runs this file under ``REPRO_CHAOS_SEED=7`` and ``123``).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import CompressedMatrix
from repro.data import make_classification
from repro.distributed import SimulatedCluster
from repro.errors import ReproError, StorageError
from repro.indb.gradient import train_igd
from repro.indb.uda import GramUDA, run_uda
from repro.ml import LinearRegression, LogisticRegression
from repro.ml.losses import LogisticLoss
from repro.resilience import (
    ChaosContext,
    FaultPlan,
    RetryPolicy,
    chaos_seed_from_env,
)
from repro.runtime.parallel import ParallelContext, merge_tree
from repro.selection import (
    grid_search,
    random_search,
    successive_halving,
)
from repro.storage.table import Table


def make_table(n=200, d=4, seed=0):
    rng = np.random.default_rng(seed)
    cols = {f"x{i}": rng.standard_normal(n) for i in range(d)}
    cols["y"] = rng.standard_normal(n)
    return Table.from_columns(cols)


# ----------------------------------------------------------------------
# The engine itself
# ----------------------------------------------------------------------
class TestParallelContext:
    def test_pmap_preserves_order(self):
        with ParallelContext(max_workers=4, cost_threshold=0) as ctx:
            out = ctx.pmap(lambda x: x * x, range(50))
        assert out == [x * x for x in range(50)]

    def test_cost_gate_falls_back_to_serial(self):
        with ParallelContext(max_workers=4, cost_threshold=1e6) as ctx:
            ctx.pmap(lambda x: x, range(10), cost_hint=10.0)
            assert ctx.stats.serial_fallbacks == 1
            assert ctx.stats.parallel_calls == 0
            ctx.pmap(lambda x: x, range(10), cost_hint=1e9)
            assert ctx.stats.parallel_calls == 1

    def test_single_worker_never_fans_out(self):
        with ParallelContext(max_workers=1, cost_threshold=0) as ctx:
            ctx.pmap(lambda x: x, range(10))
            assert ctx.stats.parallel_calls == 0
            assert ctx.stats.serial_fallbacks == 1

    def test_nested_pmap_runs_serially_without_deadlock(self):
        with ParallelContext(max_workers=2, cost_threshold=0) as ctx:
            def outer(i):
                return sum(ctx.pmap(lambda x: x + i, range(5)))

            out = ctx.pmap(outer, range(8))
        assert out == [sum(x + i for x in range(5)) for i in range(8)]
        # Inner calls were recorded as serial fallbacks, not deadlocks.
        assert ctx.stats.serial_fallbacks >= 8

    def test_ledger_records_tasks_and_times(self):
        with ParallelContext(max_workers=2, cost_threshold=0) as ctx:
            ctx.pmap(lambda x: x, range(7), site="unit")
        stats = ctx.stats
        assert stats.tasks_dispatched == 7
        assert "unit" in stats.by_site
        assert stats.by_site["unit"].calls == 1
        record = stats.by_site["unit"]
        assert record.parallel_calls == 1 and record.tasks_dispatched == 7
        assert record.wall_time >= 0 and record.task_time >= 0

    def test_stats_as_dict_round_trip(self):
        with ParallelContext(max_workers=2, cost_threshold=0) as ctx:
            ctx.pmap(lambda x: x, range(3), site="a")
        d = ctx.stats.as_dict()
        assert d["calls"] == 1 and d["by_site"]["a"]["tasks_dispatched"] == 3

    def test_env_num_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert ParallelContext().max_workers == 3
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        with pytest.raises(ReproError):
            ParallelContext()

    def test_worker_exception_wrapped_with_context(self):
        from repro.errors import ParallelTaskError

        def boom(x):
            raise ValueError("task failed")

        with ParallelContext(max_workers=2, cost_threshold=0) as ctx:
            with pytest.raises(ParallelTaskError) as excinfo:
                ctx.pmap(boom, range(4), site="boom.site")
        err = excinfo.value
        assert err.site == "boom.site"
        assert err.index == 0
        assert err.attempts == 1
        assert isinstance(err.__cause__, ValueError)
        assert "task failed" in str(err.__cause__)

    def test_a_failed_fan_out_cancels_its_queued_tasks(self):
        from repro.errors import ParallelTaskError

        started = []

        def task(x):
            if x == 0:
                raise ValueError("task failed")
            started.append(x)
            time.sleep(0.01)

        ctx = ParallelContext(max_workers=2, cost_threshold=0, retry_policy=None)
        with ctx, pytest.raises(ParallelTaskError):
            ctx.pmap(task, range(40))
        time.sleep(0.2)
        # only what a worker had already picked up ran past the failure
        assert len(started) <= ctx.max_workers, started


class TestMergeTree:
    def test_single_item(self):
        assert merge_tree(lambda a, b: a + b, [7]) == 7

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            merge_tree(lambda a, b: a + b, [])

    def test_preserves_item_order(self):
        # Concatenation is associative but not commutative: the tree must
        # never permute operands.
        for k in range(1, 12):
            items = [str(i) for i in range(k)]
            assert merge_tree(lambda a, b: a + b, items) == "".join(items)

    def test_log_depth_association(self):
        calls = []
        merge_tree(lambda a, b: (calls.append((a, b)), a + b)[1], [1, 2, 3, 4])
        assert calls == [(1, 2), (3, 4), (3, 7)]


# ----------------------------------------------------------------------
# Layer 1: UDA execution
# ----------------------------------------------------------------------
class TestParallelUDA:
    def test_parallel_equals_serial_gram(self):
        table = make_table(300, 3)
        cols = ["x0", "x1", "x2"]
        serial = run_uda(table, GramUDA(), cols, partitions=4)
        ctx = ParallelContext(max_workers=4, cost_threshold=0)
        par = run_uda(
            table, GramUDA(), cols, partitions=4, parallel=ctx
        )
        assert par.n == serial.n
        np.testing.assert_array_equal(par.gram, serial.gram)
        assert ctx.stats.parallel_calls == 1
        ctx.shutdown()

    def test_parallel_igd_bitwise_equals_serial(self):
        table = make_table(150, 3, seed=3)
        ctx = ParallelContext(max_workers=4, cost_threshold=0)
        kwargs = dict(
            epochs=3, partitions=4, shuffle="once", seed=7, l2=0.01
        )
        serial = train_igd(
            table, ["x0", "x1", "x2"], "y", LogisticLoss(), **kwargs
        )
        par = train_igd(
            table,
            ["x0", "x1", "x2"],
            "y",
            LogisticLoss(),
            parallel=ctx,
            **kwargs,
        )
        np.testing.assert_array_equal(par.weights, serial.weights)
        assert par.loss_history == serial.loss_history
        ctx.shutdown()

    def test_empty_partitions_skipped(self):
        table = make_table(3, 2)
        cols = ["x0", "x1"]

        class CountingUDA(GramUDA):
            initialized = 0

            def initialize(self):
                CountingUDA.initialized += 1
                return super().initialize()

        uda = CountingUDA()
        out = run_uda(table, uda, cols, partitions=10)
        assert out.n == 3
        # Only the non-empty slices folded a state (<= one per row).
        assert CountingUDA.initialized <= 3

    def test_partitions_exceeding_rows_match_exact_partitioning(self):
        table = make_table(5, 2, seed=1)
        cols = ["x0", "x1"]
        few = run_uda(table, GramUDA(), cols, partitions=5)
        many = run_uda(table, GramUDA(), cols, partitions=64)
        np.testing.assert_allclose(many.gram, few.gram, atol=1e-12)
        assert many.n == few.n == 5

    def test_empty_table_still_raises(self):
        table = Table.from_columns(
            {"x0": np.array([]), "x1": np.array([])}
        )
        with pytest.raises(StorageError):
            run_uda(table, GramUDA(), ["x0", "x1"], partitions=4)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=1, max_value=4),
    partitions=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_merge_tree_uda_matches_single_partition(n, d, partitions, seed):
    """Property: any partition count (even > n_rows) equals partitions=1.

    Gram has an associative-commutative merge, so the merge tree over
    any partitioning must reproduce the single-state fold up to float
    re-association.
    """
    rng = np.random.default_rng(seed)
    cols = {f"x{i}": rng.standard_normal(n) * 10 for i in range(d)}
    table = Table.from_columns(cols)
    names = list(cols)
    ctx = ParallelContext(max_workers=4, cost_threshold=0)
    try:
        g1 = run_uda(table, GramUDA(), names, partitions=1)
        gk = run_uda(
            table, GramUDA(), names, partitions=partitions, parallel=ctx
        )
        assert gk.n == g1.n == n
        np.testing.assert_allclose(gk.gram, g1.gram, rtol=1e-9, atol=1e-9)
    finally:
        ctx.shutdown()


# ----------------------------------------------------------------------
# Layer 2: compressed linear algebra
# ----------------------------------------------------------------------
def _cla_dense():
    """Six low-cardinality columns (compressible) beside two dense ones."""
    rng = np.random.default_rng(11)
    return np.column_stack(
        [rng.integers(0, 6, 4000).astype(float) for _ in range(6)]
        + [rng.standard_normal(4000) for _ in range(2)]
    )


class TestParallelCLA:
    @pytest.fixture(scope="class")
    def matrices(self):
        X = _cla_dense()
        serial = CompressedMatrix.compress(X)
        ctx = ParallelContext(max_workers=4, cost_threshold=0)
        par = CompressedMatrix.compress(X).set_parallel(ctx)
        yield X, serial, par, ctx
        ctx.shutdown()

    def test_matvec_matches(self, matrices):
        X, serial, par, _ = matrices
        v = np.random.default_rng(1).standard_normal(X.shape[1])
        np.testing.assert_allclose(
            par.matvec(v), serial.matvec(v), atol=1e-9
        )
        np.testing.assert_allclose(par.matvec(v), X @ v, atol=1e-9)

    def test_rmatvec_bitwise(self, matrices):
        X, serial, par, _ = matrices
        u = np.random.default_rng(2).standard_normal(X.shape[0])
        np.testing.assert_array_equal(par.rmatvec(u), serial.rmatvec(u))

    def test_colsums_bitwise(self, matrices):
        _, serial, par, _ = matrices
        np.testing.assert_array_equal(par.colsums(), serial.colsums())

    def test_tsmm_matches(self, matrices):
        X, serial, par, _ = matrices
        np.testing.assert_allclose(par.gram(), serial.gram(), atol=1e-9)
        np.testing.assert_allclose(par.gram(), X.T @ X, atol=1e-6)

    def test_parallel_calls_recorded(self, matrices):
        _, _, par, ctx = matrices
        before = ctx.stats.parallel_calls
        par.matvec(np.ones(par.shape[1]))
        assert ctx.stats.parallel_calls == before + 1

    def test_set_parallel_toggles(self, matrices):
        X, serial, _, ctx = matrices
        m, v = CompressedMatrix.compress(X), np.ones(X.shape[1])
        before = ctx.stats.parallel_calls
        m.matvec(v)  # detached: nothing reaches the pool
        assert ctx.stats.parallel_calls == before
        m.set_parallel(ctx).matvec(v)
        assert ctx.stats.parallel_calls == before + 1
        m.set_parallel(False).matvec(v)
        assert ctx.stats.parallel_calls == before + 1


# ----------------------------------------------------------------------
# Layer 3: model selection
# ----------------------------------------------------------------------
class TestParallelSelection:
    @pytest.fixture(scope="class")
    def regression(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((160, 5))
        w = rng.standard_normal(5)
        y = X @ w + 0.1 * rng.standard_normal(160)
        return X, y

    @pytest.fixture(scope="class")
    def ctx(self):
        with ParallelContext(max_workers=4, cost_threshold=0) as ctx:
            yield ctx

    def test_grid_search_identical_selection(self, regression, ctx):
        X, y = regression
        grid = {"l2": [0.0, 0.01, 0.1, 1.0], "fit_intercept": [True, False]}
        serial = grid_search(LinearRegression(), grid, X, y, cv=3)
        par = grid_search(LinearRegression(), grid, X, y, cv=3, parallel=ctx)
        assert par.best_params == serial.best_params
        assert len(par.evaluations) == len(serial.evaluations)
        assert [e.params for e in par.evaluations] == [
            e.params for e in serial.evaluations
        ]
        np.testing.assert_allclose(
            [e.score for e in par.evaluations],
            [e.score for e in serial.evaluations],
            rtol=1e-12,
        )
        assert par.total_cost == serial.total_cost

    def test_random_search_identical_draws(self, regression, ctx):
        X, y = regression
        space = {"l2": ("loguniform", 1e-4, 10.0)}
        serial = random_search(
            LinearRegression(), space, X, y, n_samples=6, cv=3, seed=5
        )
        par = random_search(
            LinearRegression(), space, X, y, n_samples=6, cv=3, seed=5,
            parallel=ctx,
        )
        assert [e.params for e in par.evaluations] == [
            e.params for e in serial.evaluations
        ]
        assert par.best_params == serial.best_params

    def test_halving_identical_rungs(self, ctx):
        X, y = make_classification(240, 4, separation=2.0, seed=17)
        configs = [{"l2": l2} for l2 in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)]
        args = (X[:180], y[:180], X[180:], y[180:])
        est = LogisticRegression()
        serial = successive_halving(
            est, configs, *args, min_budget=2, max_budget=8
        )
        par = successive_halving(
            est, configs, *args, min_budget=2, max_budget=8, parallel=ctx
        )
        assert par.best_params == serial.best_params
        assert par.total_cost == serial.total_cost
        assert len(par.rungs) == len(serial.rungs)
        for rs, rp in zip(serial.rungs, par.rungs):
            assert rs.budget == rp.budget
            assert rs.survivors == rp.survivors
            np.testing.assert_allclose(rs.scores, rp.scores, rtol=1e-12)


# ----------------------------------------------------------------------
# Layer 4: simulated cluster
# ----------------------------------------------------------------------
class TestParallelCluster:
    def test_gradient_and_ledger_deterministic(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((400, 6))
        y = np.sign(rng.standard_normal(400))
        loss = LogisticLoss()
        w = rng.standard_normal(6)

        serial = SimulatedCluster(X, y, num_workers=4, seed=0)
        with ParallelContext(max_workers=4, cost_threshold=0) as ctx:
            par = SimulatedCluster(X, y, num_workers=4, seed=0, parallel=ctx)
            for _ in range(3):
                gs = serial.global_gradient(loss, w)
                gp = par.global_gradient(loss, w)
                np.testing.assert_array_equal(gp, gs)
            assert par.global_loss(loss, w) == serial.global_loss(loss, w)
            assert ctx.stats.parallel_calls == 4
        assert par.comm.rounds == serial.comm.rounds
        assert par.comm.messages == serial.comm.messages
        assert par.comm.total_bytes == serial.comm.total_bytes


# ----------------------------------------------------------------------
# Every dispatching call site, pooled under a fault plan
# ----------------------------------------------------------------------
def _cla_ops(ctx):
    m = CompressedMatrix.compress(_cla_dense()).set_parallel(ctx)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(m.shape[1])
    u = rng.standard_normal(m.shape[0])
    return [m.matvec(v), m.rmatvec(u), m.colsums(), m.gram()]


def _uda_ops(ctx):
    table = make_table(300, 3)
    out = run_uda(
        table, GramUDA(), ["x0", "x1", "x2"], partitions=8, parallel=ctx
    )
    return [out.gram, out.xty, out.yty, out.n]


def _cluster_ops(ctx):
    rng = np.random.default_rng(31)
    X = rng.standard_normal((400, 6))
    y = np.sign(rng.standard_normal(400))
    w = rng.standard_normal(6)
    cluster = SimulatedCluster(X, y, num_workers=4, seed=0, parallel=ctx)
    return [cluster.global_gradient(LogisticLoss(), w) for _ in range(3)] + [
        cluster.global_loss(LogisticLoss(), w)
    ]


def _selection_ops(ctx):
    rng = np.random.default_rng(21)
    X = rng.standard_normal((160, 5))
    y = X @ rng.standard_normal(5) + 0.1 * rng.standard_normal(160)
    grid = {"l2": [0.0, 0.01, 0.1, 1.0], "fit_intercept": [True, False]}
    space = {"l2": ("loguniform", 1e-4, 10.0)}
    Xc, yc = make_classification(240, 4, separation=2.0, seed=17)
    configs = [{"l2": l2} for l2 in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)]
    split = (Xc[:180], yc[:180], Xc[180:], yc[180:])
    halving = successive_halving(
        LogisticRegression(), configs, *split, min_budget=2, max_budget=8,
        parallel=ctx,
    )
    searches = [
        grid_search(LinearRegression(), grid, X, y, cv=3, parallel=ctx),
        random_search(
            LinearRegression(), space, X, y, n_samples=6, cv=3, seed=5,
            parallel=ctx,
        ),
        halving,
        successive_halving(
            LogisticRegression(), configs, *split, min_budget=8,
            max_budget=8, parallel=ctx,
        ),
    ]
    return [
        (repr(e.params), e.score, e.cost)
        for search in searches for e in search.evaluations
    ] + [(rung.budget, repr(rung.survivors)) for rung in halving.rungs]


CHAOS_CASES = {
    "cla": (_cla_ops, ("cla.matvec", "cla.rmatvec", "cla.colsums", "cla.tsmm")),
    "indb": (_uda_ops, ("indb.run_uda",)),
    "cluster": (_cluster_ops, ("cluster.gradient", "cluster.loss")),
    "selection": (_selection_ops, (
        "selection.grid_search", "selection.random_search",
        "selection.halving",
    )),
}


def _pooled():
    return ParallelContext(
        max_workers=4,
        cost_threshold=0,
        retry_policy=RetryPolicy(max_attempts=32, backoff_base=0.0),
    )


@pytest.mark.parametrize("case", sorted(CHAOS_CASES))
def test_pooled_sites_recover_bitwise_under_chaos(case):
    """Each pooled call site again, every task behind a seeded
    ``parallel.task.*`` rule: the answers are bitwise the clean run's,
    and each injected fault is one failed execution recovered by one
    retry under the context's policy."""
    ops, sites = CHAOS_CASES[case]
    with _pooled() as ctx:
        clean = ops(ctx)
    plan = FaultPlan(seed=chaos_seed_from_env()).inject(
        "parallel.task.*", rate=0.5
    )
    with _pooled() as ctx, ChaosContext(plan) as chaos:
        # repeated, so every site makes enough decisions to be faulted
        runs = [ops(ctx) for _ in range(4)]
    for faulted in runs:
        assert len(faulted) == len(clean)
        for got, want in zip(faulted, clean):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for site in sites:
        entry = ctx.stats.by_site[site]
        injected = chaos.injected_at(f"parallel.task.{site}")
        assert entry.parallel_calls > 0, site
        assert entry.task_failures == entry.retries == injected, site
        assert 0 < entry.recovered_tasks <= injected, site
