"""Drift-gated rollout: promotion refuses to outrun the feature data.

A :class:`DriftGate` watches the serving-side distribution of every
feature in a view in one (features × buckets) count matrix over edges
frozen from the training reference (row ``j`` is
``view.feature_names[j]``), and sits in the promotion path of a
:class:`~repro.serving.ShardedServer` endpoint. At promotion time it
checks two things:

* **version integrity** — the candidate :class:`ModelVersion` carries a
  ``feature_fingerprint``; if it doesn't match the live view's version,
  the model was trained on different feature definitions and promotion
  is held.
* **covariate stability** — if any sufficiently-observed feature's PSI
  or KS statistic has crossed its module-constant threshold, promotion
  is held and a staged canary is rolled back, so a shifted stream
  cannot graduate to full traffic.

The reference side is normalised once, when the edges freeze; a
decision normalises the served side and computes PSI, KS and TV once
each over all features. Only a hold builds a snapshot of them.

Every decision lands in one exact :class:`~repro.obs.Ledger`
(observations, evaluations, holds, rollbacks, promotes; ``features.gate.*``
in the registry) — replayable against an analytic oracle, since the
statistics are pure functions of the frozen edges and the observation
list.
"""

from __future__ import annotations

import numpy as np

from ..errors import FeatureStoreError, PromotionHeldError
from ..feateng import drift
from ..obs import Counted, Ledger
from .view import FeatureView

#: drift verdicts need this many serving observations per feature
#: before they can hold a promotion (tiny samples alias as shift).
DEFAULT_MIN_OBSERVATIONS = 100


class DriftGate(Counted):
    """Holds/rolls back canary promotion on feature drift or version skew.

    Args:
        view: the feature view the endpoint's model was trained on.
        reference: training-time feature values — a
            :class:`~repro.features.store.MaterializedFeatures`, whose
            ``columns`` (column views of its one matrix) are read, or a
            mapping of feature name -> array. Bucket edges freeze here.
        min_observations: serving observations required per feature
            before its drift verdict can hold a promotion.

    A drift hold also clears the endpoint's canary on the controller.
    """

    def __init__(
        self,
        view: FeatureView,
        reference,
        min_observations: int = DEFAULT_MIN_OBSERVATIONS,
    ):
        self.view = view
        if not 0 <= min_observations < float("inf"):  # NaN fails too
            raise FeatureStoreError(
                f"gate on view {view.name!r}: min_observations must be "
                f">= 0, got {min_observations!r}"
            )
        self.min_observations = int(min_observations)
        columns = getattr(reference, "columns", reference)
        edges, reference_counts = [], []
        for fname in view.feature_names:
            if fname not in columns:
                raise FeatureStoreError(
                    f"gate reference is missing feature {fname!r}"
                )
            edges.append(drift.frozen_edges(columns[fname]))
            reference_counts.append(
                drift.bucket_counts(columns[fname], edges[-1])
            )
        #: frozen edges, reference and served counts, one row per
        #: feature in ``view.feature_names`` order.
        self.edges = np.stack(edges)
        self.reference_counts = np.stack(reference_counts)
        self.served_counts = np.zeros_like(self.reference_counts)
        self._reference = drift.count_side(self.reference_counts)
        self.counts = Ledger("features.gate", (
            "observations", "evaluations", "holds", "rollbacks", "promotes",
        ))

    # -- serving-side accumulation -------------------------------------
    def observe_many(self, rows) -> None:
        """Fold a batch of served rows — ``(n, features)``, or one row —
        into the count matrix in one pass over all features."""
        name, width = self.view.name, len(self.view.feature_names)
        try:
            batch = np.atleast_1d(np.asarray(rows, dtype=np.float64))
        except (TypeError, ValueError) as exc:
            raise FeatureStoreError(
                f"gate on view {name!r}: served rows are not numeric ({exc})"
            ) from None
        if batch.ndim > 2:
            raise FeatureStoreError(
                f"gate on view {name!r} folds (rows, {width}) batches, got "
                f"shape {batch.shape}"
            )
        if batch.size and batch.shape[-1] != width:
            raise FeatureStoreError(
                f"gate on view {name!r} observed {batch.shape[-1]} values "
                f"for {width} features"
            )
        batch = batch.reshape(-1, width)
        self.served_counts += drift.bucket_counts(batch.T, self.edges)
        self.counts.inc("observations", len(batch))

    def _statistics(self) -> tuple[np.ndarray, ...]:
        """Every feature's (observed, psi, ks, tv, drifted) rows against
        the frozen reference, the served side normalised once."""
        # each finite observation adds exactly 1 to one bucket, so the
        # integer-valued row sums count them exactly
        observed = self.served_counts.sum(axis=1).astype(np.int64)
        cur = drift.count_side(self.served_counts)
        psi, ks, tv = drift.side_statistics(self._reference, cur)
        drifted = (observed > 0) & (
            (psi > drift.PSI_DEFAULT_THRESHOLD)
            | (ks > drift.KS_DEFAULT_THRESHOLD)
        )
        return observed, psi, ks, tv, drifted

    def drift_snapshot(self) -> dict[str, drift.DriftStats]:
        """Every feature's statistics, each computed once for all
        features; ``drifted`` when PSI or KS has crossed its threshold
        over at least one observation."""
        return self._snapshot(self._statistics())

    def _snapshot(self, stats) -> dict[str, drift.DriftStats]:
        columns = (column.tolist() for column in stats)
        rows = zip(self.view.feature_names, *columns)
        return {row[0]: drift.DriftStats(*row) for row in rows}

    # -- the promotion hook --------------------------------------------
    def authorize(self, controller, endpoint: str, entry=None) -> None:
        """Decide one promotion from one pass over the statistics (only
        a hold builds their :meth:`drift_snapshot`); raise
        :class:`PromotionHeldError` to refuse it.

        ``controller`` is the server that owns the canary (a
        ``ShardedServer``: its ``clear_canary(name)`` returns whether a
        canary was staged); ``entry`` is the candidate
        :class:`ModelVersion`, checked for feature-fingerprint skew when
        it carries one.
        """
        self.counts.inc("evaluations")
        reasons: list[str] = []
        trained_on = getattr(entry, "feature_fingerprint", None)
        if trained_on is not None and trained_on != self.view.version:
            reasons.append(
                f"feature fingerprint mismatch: model trained on "
                f"{trained_on[:12]}, live view is {self.view.version[:12]}"
            )
        observed, *_, drifted = stats = self._statistics()
        drifted = bool((drifted & (observed >= self.min_observations)).any())
        if not reasons and not drifted:
            self.counts.inc("promotes")
            return
        snapshot = self._snapshot(stats)
        for fname, s in sorted(snapshot.items()):
            if s.drifted and s.observed >= self.min_observations:
                reasons.append(
                    f"feature {fname!r} drifted (psi={s.psi:.3f}, "
                    f"ks={s.ks:.3f} over {s.observed} observations)"
                )
        self.counts.inc("holds")
        rolled_back = drifted and controller.clear_canary(endpoint)
        if rolled_back:
            self.counts.inc("rollbacks")
        scores = {
            f: {"psi": s.psi, "ks": s.ks, "observed": s.observed}
            for f, s in snapshot.items()
        }
        raise PromotionHeldError(
            endpoint, reasons, scores=scores, rolled_back=rolled_back
        )
