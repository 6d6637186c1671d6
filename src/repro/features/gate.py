"""Drift-gated rollout: promotion refuses to outrun the feature data.

A :class:`DriftGate` watches the serving-side distribution of every
feature in a view through per-feature
:class:`~repro.feateng.StreamingDriftMonitor` instances (bucket edges
frozen over the training reference) and sits in the promotion path of a
:class:`~repro.serving.ModelServer` / ``ShardedServer``. At promotion
time it checks two things:

* **version integrity** — the candidate :class:`ModelVersion` carries a
  ``feature_fingerprint``; if it doesn't match the live view's version,
  the model was trained on different feature definitions and promotion
  is held.
* **covariate stability** — if any sufficiently-observed feature's PSI
  or KS statistic has crossed its threshold, promotion is held and the
  endpoint's canary is rolled back, so a shifted stream cannot graduate
  to full traffic.

Every decision lands in one exact :class:`~repro.obs.Ledger`
(observations, evaluations, holds, rollbacks, promotes; ``features.gate.*``
in the registry) — replayable against an analytic oracle, since the
monitors' statistics are pure functions of the frozen edges and the
observation list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FeatureStoreError, PromotionHeldError, ReproError
from ..feateng.drift import (
    PSI_DEFAULT_THRESHOLD,
    DriftStats,
    StreamingDriftMonitor,
)
from ..obs import Counted, Ledger
from .view import FeatureView

#: drift verdicts need this many serving observations per feature
#: before they can hold a promotion (tiny samples alias as shift).
DEFAULT_MIN_OBSERVATIONS = 100


@dataclass(frozen=True)
class GateDecision:
    """A clean promotion verdict (holds raise instead)."""

    endpoint: str
    promoted: bool
    reasons: tuple[str, ...]
    scores: dict


class DriftGate(Counted):
    """Holds/rolls back canary promotion on feature drift or version skew.

    Args:
        view: the feature view the endpoint's model was trained on.
        reference: training-time feature values — a
            :class:`~repro.features.store.MaterializedFeatures` or a
            mapping of feature name -> array. Bucket edges freeze here.
        psi_threshold: per-feature PSI alarm level (KS alarms at
            :data:`~repro.feateng.drift.KS_DEFAULT_THRESHOLD`).
        min_observations: serving observations required per feature
            before its drift verdict can hold a promotion.

    A drift hold also clears the endpoint's canary on the controller.
    """

    def __init__(
        self,
        view: FeatureView,
        reference,
        psi_threshold: float = PSI_DEFAULT_THRESHOLD,
        min_observations: int = DEFAULT_MIN_OBSERVATIONS,
    ):
        self.view = view
        self.min_observations = int(min_observations)
        columns = getattr(reference, "columns", reference)
        self.monitors: dict[str, StreamingDriftMonitor] = {}
        for fname in view.feature_names:
            if fname not in columns:
                raise FeatureStoreError(
                    f"gate reference is missing feature {fname!r}"
                )
            self.monitors[fname] = StreamingDriftMonitor(
                fname,
                columns[fname],
                psi_threshold=psi_threshold,
            )
        self.counts = Ledger("features.gate", (
            "observations", "evaluations", "holds", "rollbacks", "promotes",
        ))

    # -- serving-side accumulation -------------------------------------
    def observe_many(self, rows) -> None:
        """Fold a batch of served rows into the per-feature monitors,
        one vectorised fold per feature column (not per value)."""
        batch = np.atleast_1d(np.asarray(rows, dtype=np.float64))
        width = len(self.view.feature_names)
        if batch.size and batch.shape[-1] != width:
            raise FeatureStoreError(
                f"gate observed {batch.shape[-1]} values for "
                f"{width} features"
            )
        batch = batch.reshape(-1, width)
        for j, fname in enumerate(self.view.feature_names):
            self.monitors[fname].observe_many(batch[:, j])
        self.counts.inc("observations", len(batch))

    def drift_snapshot(self) -> dict[str, DriftStats]:
        """Current per-feature statistics (all features)."""
        return {f: m.snapshot() for f, m in self.monitors.items()}

    def drifted_features(self) -> dict[str, DriftStats]:
        """Features whose verdict can hold a promotion right now."""
        out: dict[str, DriftStats] = {}
        for fname, monitor in self.monitors.items():
            if monitor.observed < self.min_observations:
                continue
            stats = monitor.snapshot()
            if stats.drifted:
                out[fname] = stats
        return out

    # -- the promotion hook --------------------------------------------
    def authorize(self, controller, endpoint: str, entry=None) -> GateDecision:
        """Decide one promotion; raise :class:`PromotionHeldError` to
        refuse it.

        ``controller`` is whatever owns the canary (a ``ModelServer`` or
        ``ShardedServer`` — anything with ``clear_canary(name)``);
        ``entry`` is the candidate :class:`ModelVersion`, checked for
        feature-fingerprint skew when it carries one.
        """
        self.counts.inc("evaluations")
        reasons: list[str] = []
        trained_on = getattr(entry, "feature_fingerprint", None)
        if trained_on is not None and trained_on != self.view.version:
            reasons.append(
                f"feature fingerprint mismatch: model trained on "
                f"{trained_on[:12]}, live view is {self.view.version[:12]}"
            )
        drifted = self.drifted_features()
        scores = {
            f: {"psi": s.psi, "ks": s.ks, "observed": s.observed}
            for f, s in self.drift_snapshot().items()
        }
        for fname, stats in sorted(drifted.items()):
            reasons.append(
                f"feature {fname!r} drifted (psi={stats.psi:.3f}, "
                f"ks={stats.ks:.3f} over {stats.observed} observations)"
            )
        if reasons:
            self.counts.inc("holds")
            rolled_back = False
            if drifted:
                try:
                    controller.clear_canary(endpoint)
                    rolled_back = True
                    self.counts.inc("rollbacks")
                except ReproError:
                    pass  # no canary staged; the hold alone suffices
            raise PromotionHeldError(
                endpoint, reasons, scores=scores, rolled_back=rolled_back
            )
        self.counts.inc("promotes")
        return GateDecision(
            endpoint=endpoint, promoted=True, reasons=(), scores=scores
        )
