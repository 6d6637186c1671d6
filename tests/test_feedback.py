"""Adaptive re-optimization: the feedback store and its consumers.

Covers the PR-6 surface: EMA/confidence blending, demotion from observed
densify fallbacks, learned pmap site policies, the planner reading
blended evidence into its decisions and
``explain`` provenance, the executor and parallel engine publishing
observations, mid-run re-planning in the iterative drivers with bitwise
parity oracles, and the disabled-by-default invariance guarantee.
"""

import numpy as np
import pytest

from repro.compiler import (
    FeedbackStore,
    compile_expr,
    feedback_scope,
    plan_representations,
)
from repro.compiler import feedback as fb
from repro.compiler.feedback import FeedbackError, input_key
from repro.lang import matrix
from repro.obs import get_registry
from repro.operand import estimate_density as _estimate_density
from repro.runtime import execute
from repro.runtime.parallel import ParallelContext
from repro.sparse import CSRMatrix


def _make_dense(n=60, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, d)).astype(np.float64)


# ----------------------------------------------------------------------
# Blending math
# ----------------------------------------------------------------------
class TestBlending:
    def test_cold_store_returns_pure_estimate(self):
        store = FeedbackStore()
        est = store.blended("X@10x10", "density", 0.25)
        assert est.source == "estimated"
        assert est.value == 0.25
        assert est.observed is None
        assert est.confidence == 0.0

    def test_single_observation_blends_by_confidence(self):
        store = FeedbackStore()
        store.observe_input("X@10x10", "dense", density=1.0)
        est = store.blended("X@10x10", "density", 0.5)
        # conf = 1 / (1 + 2) = 1/3; value = conf*1.0 + (1-conf)*0.5
        assert est.source == "observed"
        assert est.observed == 1.0
        assert est.confidence == pytest.approx(1 / 3)
        assert est.value == pytest.approx(1 / 3 * 1.0 + 2 / 3 * 0.5)

    def test_ema_weights_newest_observation(self):
        store = FeedbackStore()
        store.observe_input("X@10x10", "dense", density=0.0)
        store.observe_input("X@10x10", "dense", density=1.0)
        est = store.blended("X@10x10", "density", 0.0)
        # ema = 0.3*1.0 + 0.7*0.0 = 0.3; conf = 2/(2+2) = 0.5
        assert est.observed == pytest.approx(fb.EMA_DECAY)
        assert est.confidence == pytest.approx(0.5)
        assert est.value == pytest.approx(0.5 * fb.EMA_DECAY)

    def test_confidence_saturates_with_count(self):
        store = FeedbackStore()
        for _ in range(50):
            store.observe_input("X@10x10", "dense", density=0.8)
        est = store.blended("X@10x10", "density", 0.1)
        assert est.confidence > 0.9
        assert est.value == pytest.approx(0.8, abs=0.08)

    def test_ratio_channel_is_independent(self):
        store = FeedbackStore()
        store.observe_input("X@10x10", "cla", cla_ratio=3.0)
        assert store.blended("X@10x10", "cla_ratio", 1.0).source == "observed"
        assert store.blended("X@10x10", "density", 0.5).source == "estimated"

    def test_describe_renders_provenance(self):
        store = FeedbackStore()
        cold = store.blended("X@10x10", "density", 0.25)
        assert cold.describe("density") == "density est 0.25"
        store.observe_input("X@10x10", "dense", density=1.0)
        warm = store.blended("X@10x10", "density", 0.25)
        text = warm.describe("density")
        assert "obs 1" in text and "conf 0.33" in text


# ----------------------------------------------------------------------
# Demotion
# ----------------------------------------------------------------------
class TestDemotionAndOps:
    def test_fallback_rate_demotes_kind(self):
        store = FeedbackStore()
        key = "X@10x10"
        store.observe_input(key, "csr", fallbacks=2)
        assert store.demoted_kinds(key) == {"csr": 2}

    def test_clean_executions_dilute_fallbacks(self):
        store = FeedbackStore()
        key = "X@10x10"
        store.observe_input(key, "csr", fallbacks=1)
        for _ in range(3):
            store.observe_input(key, "csr")  # clean runs
        # 1 fallback over 4 executions < DEMOTION_FALLBACK_RATE (0.5)
        assert store.demoted_kinds(key) == {}

    def test_unknown_key_not_demoted(self):
        assert FeedbackStore().demoted_kinds("nope@1x1") == {}


# ----------------------------------------------------------------------
# Site policies
# ----------------------------------------------------------------------
class TestSitePolicy:
    def test_cold_site_has_no_policy(self):
        assert FeedbackStore().site_policy("s") is None

    def test_paired_loss_goes_serial(self):
        store = FeedbackStore()
        # serial per-task 1ms, parallel per-task 2ms -> speedup 0.5
        store.observe_site("s", tasks=4, parallel=False, wall=0.004, work=0.004)
        store.observe_site("s", tasks=4, parallel=True, wall=0.008, work=0.016)
        policy = store.site_policy("s")
        assert policy is not None
        assert policy.action == "serial"
        assert policy.speedup == pytest.approx(0.5)

    def test_paired_win_boosts_threshold(self):
        store = FeedbackStore()
        store.observe_site("s", tasks=4, parallel=False, wall=0.008, work=0.008)
        store.observe_site("s", tasks=4, parallel=True, wall=0.004, work=0.016)
        policy = store.site_policy("s")
        assert policy is not None
        assert policy.action == "boost"
        assert policy.speedup == pytest.approx(2.0)

    def test_neutral_speedup_yields_no_policy(self):
        store = FeedbackStore()
        store.observe_site("s", tasks=4, parallel=False, wall=0.004, work=0.004)
        # parallel marginally faster: 1.0 <= speedup < SITE_WIN_SPEEDUP
        store.observe_site(
            "s", tasks=4, parallel=True, wall=0.0036, work=0.0144
        )
        assert store.site_policy("s") is None

    def test_paired_signal_preferred_over_work_ratio(self):
        # GIL-bound thread tasks inflate summed task time (work/wall ~ 2
        # even when parallel is slower); the paired signal must win.
        store = FeedbackStore()
        store.observe_site("s", tasks=4, parallel=False, wall=0.004, work=0.004)
        store.observe_site("s", tasks=4, parallel=True, wall=0.008, work=0.016)
        policy = store.site_policy("s")
        assert policy.action == "serial"  # despite work/wall == 2.0

    def test_work_ratio_fallback_when_never_serial(self):
        store = FeedbackStore()
        store.observe_site("s", tasks=4, parallel=True, wall=0.004, work=0.016)
        policy = store.site_policy("s")
        assert policy is not None
        assert policy.action == "boost"
        assert policy.speedup == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Density sampling fix (satellite 3)
# ----------------------------------------------------------------------
class TestDensitySampling:
    def test_small_matrix_exact(self):
        X = np.zeros((100, 4))
        X[:25] = 1.0
        assert _estimate_density(X) == pytest.approx(0.25)

    def test_tail_dense_matrix_not_misread_as_sparse(self):
        # All the mass in the final rows: a head or floor-strided sample
        # that never reaches the tail would report ~0.
        n = 70000
        X = np.zeros((n, 2))
        X[-(n // 4):] = 1.0
        est = _estimate_density(X)
        assert est == pytest.approx(0.25, abs=0.01)

    def test_head_dense_matrix_symmetric(self):
        n = 70000
        X = np.zeros((n, 2))
        X[: n // 4] = 1.0
        assert _estimate_density(X) == pytest.approx(0.25, abs=0.01)

    def test_sample_is_deterministic(self):
        rng = np.random.default_rng(0)
        X = (rng.random((70000, 2)) < 0.1).astype(np.float64)
        assert _estimate_density(X) == _estimate_density(X)


# ----------------------------------------------------------------------
# Planner integration
# ----------------------------------------------------------------------
class TestPlannerFeedback:
    def _matvec_plan(self, n, d):
        Xm = matrix("X", (n, d))
        wm = matrix("w", (d, 1))
        return compile_expr(Xm @ wm)

    def test_observed_density_corrects_a_sparse_looking_estimate(self):
        # Truly sparse data plans to csr cold; enough dense observations
        # of the same input key must push the decision back to dense.
        n, d = 400, 30
        rng = np.random.default_rng(1)
        X = np.where(rng.random((n, d)) < 0.02, 1.0, 0.0)
        plan = self._matvec_plan(n, d)
        bindings = {"X": X, "w": np.zeros((d, 1))}

        cold = plan_representations(plan, bindings)
        assert cold.repr_plan.choices["X"].representation == "csr"

        store = FeedbackStore()
        key = input_key("X", (n, d))
        # The 0/1 data also samples as highly compressible; demote cla so
        # the contest is csr-vs-dense, decided by the observed density.
        store.observe_input(key, "cla", fallbacks=3)
        for _ in range(30):
            store.observe_input(key, "dense", density=1.0)
        warm = plan_representations(plan, bindings, feedback=store)
        choice = warm.repr_plan.choices["X"]
        assert choice.representation == "dense"
        assert choice.evidence["density"]["source"] == "observed"

    def test_demoted_kind_forces_dense_with_reason(self):
        n, d = 400, 30
        rng = np.random.default_rng(1)
        X = np.where(rng.random((n, d)) < 0.02, 1.0, 0.0)
        plan = self._matvec_plan(n, d)
        bindings = {"X": X, "w": np.zeros((d, 1))}
        store = FeedbackStore()
        store.observe_input(input_key("X", (n, d)), "csr", fallbacks=3)
        store.observe_input(input_key("X", (n, d)), "cla", fallbacks=3)
        planned = plan_representations(plan, bindings, feedback=store)
        choice = planned.repr_plan.choices["X"]
        assert choice.representation == "dense"
        assert "demoted" in choice.reason
        assert choice.evidence["demoted"] == {"csr": 3, "cla": 3}

    def test_explain_carries_evidence_provenance(self):
        n, d = 400, 30
        X = np.random.default_rng(0).normal(size=(n, d))
        plan = self._matvec_plan(n, d)
        bindings = {"X": X, "w": np.zeros((d, 1))}

        cold = plan_representations(plan, bindings)
        cold_line = [
            ln for ln in cold.explain().splitlines() if "X ->" in ln
        ][0]
        assert "density est" in cold_line

        store = FeedbackStore()
        store.observe_input(input_key("X", (n, d)), "dense", density=1.0)
        warm = plan_representations(plan, bindings, feedback=store)
        warm_line = [
            ln for ln in warm.explain().splitlines() if "X ->" in ln
        ][0]
        assert "obs 1" in warm_line and "conf" in warm_line

    def test_feedback_false_ignores_active_store(self):
        n, d = 400, 30
        rng = np.random.default_rng(1)
        X = np.where(rng.random((n, d)) < 0.02, 1.0, 0.0)
        plan = self._matvec_plan(n, d)
        bindings = {"X": X, "w": np.zeros((d, 1))}
        store = FeedbackStore()
        store.observe_input(input_key("X", (n, d)), "csr", fallbacks=3)
        with feedback_scope(store):
            adaptive = plan_representations(plan, bindings)
            pinned = plan_representations(plan, bindings, feedback=False)
        assert adaptive.repr_plan.choices["X"].representation != "csr"
        assert pinned.repr_plan.choices["X"].representation == "csr"


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
class TestExecutorFeedback:
    def test_execute_publishes_observations(self):
        X = _make_dense(50, 6)
        Xm = matrix("X", (50, 6))
        wm = matrix("w", (6, 1))
        plan = compile_expr(Xm @ wm)
        store = FeedbackStore()
        with feedback_scope(store):
            execute(plan, {"X": X, "w": np.ones((6, 1))})
        assert store.updates > 0
        key = input_key("X", (50, 6))
        assert store.blended(key, "density", 0.0).source == "observed"

    def test_fallbacks_feed_demotion_end_to_end(self):
        # rep (*) rep elementwise has no csr kernel: both csr inputs
        # densify every execute, and two runs must demote the kind.
        n, d = 40, 6
        A = CSRMatrix.from_dense(_make_dense(n, d, seed=1))
        B = CSRMatrix.from_dense(_make_dense(n, d, seed=2))
        Am, Bm = matrix("A", (n, d)), matrix("B", (n, d))
        plan = compile_expr(Am * Bm)
        store = FeedbackStore()
        with feedback_scope(store):
            for _ in range(2):
                execute(plan, {"A": A, "B": B})
        # Attribution is per kind, not per operand: each run's two csr
        # densifications count against both csr-bound inputs.
        assert store.demoted_kinds(input_key("A", (n, d))) == {"csr": 4}
        assert store.demoted_kinds(input_key("B", (n, d))) == {"csr": 4}

    def test_disabled_path_records_nothing(self):
        X = _make_dense(50, 6)
        Xm = matrix("X", (50, 6))
        wm = matrix("w", (6, 1))
        plan = compile_expr(Xm @ wm)
        before = get_registry().value("feedback.updates")
        execute(plan, {"X": X, "w": np.ones((6, 1))})
        assert get_registry().value("feedback.updates") == before


# ----------------------------------------------------------------------
# Parallel dispatcher integration
# ----------------------------------------------------------------------
class TestParallelFeedback:
    def test_losing_site_learns_to_go_serial(self):
        store = FeedbackStore()
        # Pre-observed loss: parallel per-task twice the serial per-task.
        store.observe_site(
            "hot", tasks=4, parallel=False, wall=0.004, work=0.004
        )
        store.observe_site(
            "hot", tasks=4, parallel=True, wall=0.008, work=0.016
        )
        ctx = ParallelContext(max_workers=2, cost_threshold=0.0)
        try:
            with feedback_scope(store):
                assert not ctx.should_parallelize(4, None, site="hot")
                result = ctx.pmap(
                    lambda v: v * v, range(6), cost_hint=1e9, site="hot"
                )
            assert result == [v * v for v in range(6)]
            assert ctx.stats.by_site["hot"].serial_fallbacks == 1
            assert ctx.stats.by_site["hot"].parallel_calls == 0
            assert get_registry().value("parallel.feedback_serial") >= 1
        finally:
            ctx.shutdown()

    def test_winning_site_lowers_the_threshold(self):
        store = FeedbackStore()
        store.observe_site(
            "fast", tasks=4, parallel=False, wall=0.008, work=0.008
        )
        store.observe_site(
            "fast", tasks=4, parallel=True, wall=0.004, work=0.016
        )
        ctx = ParallelContext(max_workers=2, cost_threshold=1000.0)
        try:
            # cost 600 < 1000 gates serially without feedback ...
            assert not ctx.should_parallelize(4, 600.0, site="fast")
            with feedback_scope(store):
                # ... but the 2x winner halves the threshold: 600 >= 500.
                assert ctx.should_parallelize(4, 600.0, site="fast")
                assert not ctx.should_parallelize(4, 400.0, site="fast")
            assert get_registry().value("parallel.feedback_boosts") >= 1
        finally:
            ctx.shutdown()

    def test_dispatch_change_preserves_results(self):
        items = list(range(8))
        fn = lambda v: v * 3 + 1  # noqa: E731
        ctx = ParallelContext(max_workers=2, cost_threshold=0.0)
        try:
            parallel_result = ctx.pmap(fn, items, cost_hint=1e9, site="s")
            store = FeedbackStore()
            store.observe_site(
                "s", tasks=4, parallel=False, wall=0.004, work=0.004
            )
            store.observe_site(
                "s", tasks=4, parallel=True, wall=0.008, work=0.016
            )
            with feedback_scope(store):
                serial_result = ctx.pmap(fn, items, cost_hint=1e9, site="s")
            assert serial_result == parallel_result == [fn(v) for v in items]
        finally:
            ctx.shutdown()

    def test_pmap_feeds_site_observations_back(self):
        store = FeedbackStore()
        ctx = ParallelContext(max_workers=2, cost_threshold=0.0)
        try:
            with feedback_scope(store):
                ctx.pmap(lambda v: v, range(4), cost_hint=1e9, site="obs")
                ctx.pmap(lambda v: v, range(4), cost_hint=0.0, site="obs")
        finally:
            ctx.shutdown()
        snapshot = store._sites["obs"]
        assert snapshot["parallel_calls"] == 1
        assert snapshot["serial_calls"] == 1

    def test_stats_expose_realized_speedup_and_decisions(self):
        ctx = ParallelContext(max_workers=2, cost_threshold=100.0)
        try:
            ctx.pmap(lambda v: v, range(4), cost_hint=1e9, site="s")
            ctx.pmap(lambda v: v, range(4), cost_hint=1.0, site="s")
        finally:
            ctx.shutdown()
        site = ctx.stats.as_dict()["by_site"]["s"]
        assert site["decisions"] == {"parallel": 1, "serial": 1}
        assert site["realized_speedup"] > 0

    @pytest.mark.parametrize("site", ["csr.matvec", "csr.rmatvec", "cla.matvec"])
    def test_both_outcomes_of_a_kernel_are_observed_in_one_unit(self, site):
        """The paired signal is serial-per-task over parallel-per-task:
        a ratio only if both sides divide their wall by the same count."""
        from repro.compression import CompressedMatrix

        class SpyStore(FeedbackStore):
            def __init__(self):
                super().__init__()
                self.seen = []

            def observe_site(self, site, tasks, parallel, wall, work):
                self.seen.append((site, parallel, tasks))
                super().observe_site(site, tasks, parallel, wall, work)

        X = _make_dense(400, 6)
        operand = (
            CompressedMatrix.compress(X) if site.startswith("cla")
            else CSRMatrix.from_dense(X)
        )
        vector = np.ones(X.shape[0] if site.endswith("rmatvec") else X.shape[1])
        kernel = getattr(operand, site.split(".")[1])
        store = SpyStore()
        outputs = []
        with feedback_scope(store):
            for threshold in (0.0, 1e18):  # fan out, then gate serial
                with ParallelContext(
                    max_workers=4, cost_threshold=threshold
                ) as ctx:
                    operand.set_parallel(ctx)
                    outputs.append(kernel(vector))
        np.testing.assert_allclose(outputs[0], outputs[1], atol=1e-9)
        (_, fanned, fan_tasks), (_, gated, serial_tasks) = store.seen
        assert (fanned, gated) == (True, False)
        assert fan_tasks == serial_tasks > 1
        assert [seen[0] for seen in store.seen] == [site, site]


# ----------------------------------------------------------------------
# Driver re-planning
# ----------------------------------------------------------------------
class TestDriverReplanning:
    def _data(self, n=500, d=12, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = (X @ rng.normal(size=d) > 0).astype(float)
        return X, y

    def test_logreg_corrects_a_stale_csr_binding_bitwise(self):
        from repro.algorithms.glm import logreg_gd

        X, y = self._data()
        baseline = logreg_gd(X, y, max_iter=5, tol=0)
        adaptive = logreg_gd(
            CSRMatrix.from_dense(X), y, max_iter=5, tol=0,
            adaptive=FeedbackStore(),
        )
        # Switched to dense before iteration 1: the whole trajectory is
        # the dense trajectory, bit for bit.
        assert np.array_equal(adaptive.weights, baseline.weights)
        assert adaptive.plan_history[0].startswith("iter 0: X -> dense")

    def test_logreg_demotes_a_stale_store_plan_within_one_epoch(self):
        from repro.algorithms.glm import logreg_gd

        X, y = self._data(n=3000, d=24)
        store = FeedbackStore()
        key = input_key("X", X.shape)
        for _ in range(3):
            store.observe_input(key, "dense", density=0.01)  # stale lie
        result = logreg_gd(X, y, max_iter=4, tol=0, adaptive=store)
        assert result.replans == 1
        assert result.plan_history[0].startswith("iter 0: X -> csr")
        assert "iter 1: X -> dense" in result.plan_history[1]
        baseline = logreg_gd(X, y, max_iter=4, tol=0)
        # Iteration 1 ran on csr (exact kernels, different float order),
        # so parity is numerical, not bitwise.
        np.testing.assert_allclose(
            result.weights, baseline.weights, rtol=0, atol=1e-9
        )

    def test_checkpoint_resume_is_bitwise_across_a_replan(self, tmp_path):
        # Oracle: resume the adaptive run's epoch-1 checkpoint with a
        # plain dense run; if the mid-run switch is exact, both finish
        # bit-identically.
        from repro.algorithms.glm import logreg_gd
        from repro.resilience.checkpoint import IterativeCheckpointer

        X, y = self._data(n=800, d=10)
        store = FeedbackStore()
        key = input_key("X", X.shape)
        for _ in range(3):
            store.observe_input(key, "dense", density=0.01)

        ck_a = IterativeCheckpointer(tmp_path / "a", interval=1)
        adaptive = logreg_gd(
            X, y, max_iter=4, tol=0, checkpointer=ck_a, adaptive=store
        )
        assert adaptive.replans == 1

        ck_b = IterativeCheckpointer(tmp_path / "a", interval=1)
        resumed = logreg_gd(X, y, max_iter=4, tol=0, checkpointer=ck_b)
        assert np.array_equal(adaptive.weights, resumed.weights)

    def test_kmeans_corrects_a_stale_csr_binding_bitwise(self):
        from repro.algorithms.clustering import kmeans_dsl

        X, _ = self._data(n=600, d=8, seed=5)
        baseline = kmeans_dsl(X, 4, max_iter=6, seed=11)
        adaptive = kmeans_dsl(
            CSRMatrix.from_dense(X), 4, max_iter=6, seed=11,
            adaptive=FeedbackStore(),
        )
        assert adaptive.plan_history[0].startswith("iter 0: X -> dense")
        assert np.array_equal(adaptive.centers, baseline.centers)
        assert np.array_equal(adaptive.labels, baseline.labels)

    def test_adaptive_false_never_replans(self):
        from repro.algorithms.glm import logreg_gd

        X, y = self._data()
        store = FeedbackStore()
        for _ in range(3):
            store.observe_input(input_key("X", X.shape), "dense", density=0.01)
        with feedback_scope(store):
            result = logreg_gd(X, y, max_iter=3, tol=0, adaptive=False)
        assert result.replans == 0
        assert result.plan_history == []

    def test_replan_interval_throttles_checks(self):
        from repro.algorithms.glm import logreg_gd

        X, y = self._data(n=3000, d=24)
        store = FeedbackStore()
        for _ in range(3):
            store.observe_input(input_key("X", X.shape), "dense", density=0.01)
        result = logreg_gd(
            X, y, max_iter=4, tol=0, adaptive=store, replan_interval=10
        )
        # Interval 10 never fires within 4 iterations: the (stale) csr
        # plan from iteration 0 sticks.
        assert result.replans == 0
        assert result.plan_history[0].startswith("iter 0: X -> csr")


# ----------------------------------------------------------------------
# Enablement plumbing + disabled invariance
# ----------------------------------------------------------------------
class TestEnablement:
    def test_disabled_by_default(self):
        assert fb.active_store() is None

    def test_feedback_scope_restores_previous_store(self):
        outer = FeedbackStore()
        inner = FeedbackStore()
        with feedback_scope(outer):
            with feedback_scope(inner):
                assert fb.active_store() is inner
            assert fb.active_store() is outer
        assert fb.active_store() is None

    def test_feedback_scope_none_is_a_no_op(self):
        with feedback_scope(None) as scoped:
            assert scoped is None
            assert fb.active_store() is None

    def test_resolve_store_contract(self):
        store = FeedbackStore()
        assert fb.resolve_store(False) is None
        assert fb.resolve_store(store) is store
        assert fb.resolve_store(None) is None  # disabled by default
        with feedback_scope(store):
            assert fb.resolve_store(None) is store
        # no get-or-create global: True names no store
        for bad in (True, "yes"):
            with pytest.raises(FeedbackError, match="adaptive"):
                fb.resolve_store(bad)

    def test_disabled_runs_are_invariant(self):
        # The whole feature dark: identical plans, identical results,
        # nothing observed anywhere.
        from repro.algorithms.glm import logreg_gd

        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 8))
        y = (rng.random(300) < 0.5).astype(float)
        first = logreg_gd(X, y, max_iter=3, tol=0)
        second = logreg_gd(X, y, max_iter=3, tol=0)
        assert np.array_equal(first.weights, second.weights)
        assert first.replans == second.replans == 0
        assert get_registry().value("feedback.updates") == 0
