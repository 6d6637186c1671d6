"""Delta application with chaos coverage and lineage recompute.

:class:`DeltaConsumer` is the reusable apply discipline between a
table's change stream and any derived state: every delta crosses the
consumer's fault site, so the resilience chaos harness can drop it
mid-apply (``"raise"``) or hand back corrupted bytes (``"corrupt"``).
In both cases — and whenever a version gap reveals a delta lost in
transit — the consumer falls back to *lineage recompute*: it rebuilds
the derived state from the base table under
:func:`~repro.resilience.no_chaos`, the same repair discipline the
blockstore and materialization store use. A fault can cost time; it can
never leave silently stale state.

:class:`IncrementalMaintainer` is the ML-aggregate consumer
(gram/cofactor + centroids, the F-IVM workload); the feature store's
view maintainer (:class:`repro.features.FeatureViewMaintainer`) is a
second subclass of the same discipline.

Every outcome is one write to the consumer's ``stats``
:class:`~repro.obs.Ledger`, which counts it on the instance and as
``<prefix>.*`` in the registry (``incremental.*`` for the maintainer).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import IncrementalError, InjectedFault
from ..obs import Ledger, get_registry
from ..resilience import fault_point, no_chaos
from .aggregates import CentroidState, GramCofactorState
from .stream import ChangeStream, Delta, DynamicTable


class DeltaConsumer:
    """Applies a change stream to derived state, or repairs by lineage.

    Subclasses set :attr:`FAULT_SITE` / :attr:`OBS_PREFIX` and implement
    :meth:`_fold` (apply one verified delta, return rows folded) and
    :meth:`_rebuild` (recompute the derived state from the base table —
    invoked under :func:`no_chaos`, so it must not cross fault sites
    that would re-inject forever).
    """

    FAULT_SITE = "incremental.apply"
    OBS_PREFIX = "incremental"

    def __init__(self, table: DynamicTable, stream: ChangeStream):
        self.table = table
        self.stream = stream
        #: exact ledger of everything this consumer did
        self.stats = Ledger(self.OBS_PREFIX, (
            "deltas_applied", "rows_folded", "recomputes", "corrupt_deltas",
            "dropped_deltas", "injected_faults", "skipped_stale",
            "parity_checks",
        ))
        self.applied_version = table.version

    # ------------------------------------------------------------------
    @property
    def staleness(self) -> int:
        """How many table versions the derived state lags behind."""
        return self.table.version - self.applied_version

    def drain(self) -> int:
        """Apply every pending delta; returns deltas consumed."""
        consumed = 0
        while True:
            delta = self.stream.poll()
            if delta is None:
                break
            self.apply(delta)
            consumed += 1
        get_registry().set_gauge(f"{self.OBS_PREFIX}.staleness", self.staleness)
        return consumed

    def apply(self, delta: Delta) -> None:
        """Fold one delta — or recover by lineage recompute."""
        if delta.version <= self.applied_version:
            # Already covered by a recompute that read a newer base state.
            self.stats.inc("skipped_stale")
            return
        if delta.version != self.applied_version + 1:
            self.stats.inc("dropped_deltas")
            self._recompute("version gap")
            return
        try:
            status = fault_point(self.FAULT_SITE, key=delta.version)
        except InjectedFault:
            self.stats.inc("injected_faults")
            self._recompute("injected fault")
            return
        if status == "corrupt":
            delta = delta.corrupted()
        if not delta.verify():
            self.stats.inc("corrupt_deltas")
            self._recompute("checksum mismatch")
            return
        self.stats.inc("rows_folded", self._fold(delta))
        self.applied_version = delta.version
        self.stats.inc("deltas_applied")

    def _recompute(self, reason: str) -> None:
        """Lineage repair: rebuild the derived state from the base table.

        Runs under :func:`no_chaos` so the repair cannot itself be
        re-injected forever, and fast-forwards ``applied_version`` to
        the base table's current version — deltas still in flight below
        that version are skipped as stale when they arrive.
        """
        with no_chaos():
            self._rebuild()
        self.applied_version = self.table.version
        self.stats.inc("recomputes")

    # -- subclass surface ----------------------------------------------
    def _fold(self, delta: Delta) -> int:
        """Apply one verified, in-order delta; return rows folded."""
        raise NotImplementedError

    def _rebuild(self) -> None:
        """Recompute the derived state from ``self.table`` (chaos off)."""
        raise NotImplementedError


class IncrementalMaintainer(DeltaConsumer):
    """Keeps ML aggregates in lockstep with a dynamic table.

    Args:
        table: the mutable base table (also the lineage source).
        stream: the change stream to consume (subscribed by the caller).
        features / label: columns feeding the gram/cofactor state.
        centers: optional (k, d) reference centroids; when given, a
            :class:`CentroidState` is maintained alongside.
    """

    FAULT_SITE = "incremental.apply"
    OBS_PREFIX = "incremental"

    def __init__(
        self,
        table: DynamicTable,
        stream: ChangeStream,
        features: Sequence[str],
        label: str,
        centers: np.ndarray | None = None,
    ):
        super().__init__(table, stream)
        self.features = list(features)
        self.label = label
        self.gram_state = GramCofactorState.from_table(
            table, self.features, label
        )
        self.centroid_state = (
            CentroidState.from_table(
                table, self.features, centers, table.row_ids
            )
            if centers is not None
            else None
        )

    # ------------------------------------------------------------------
    def _fold(self, delta: Delta) -> int:
        folded = 0
        if delta.kind == "insert":
            folded += self.gram_state.fold_insert(delta.rows)
            if self.centroid_state is not None:
                self.centroid_state.fold_insert(delta.row_ids, delta.rows)
        elif delta.kind == "delete":
            folded += self.gram_state.fold_delete(delta.old_rows)
            if self.centroid_state is not None:
                self.centroid_state.fold_delete(delta.row_ids, delta.old_rows)
        elif delta.kind == "update":
            folded += self.gram_state.fold_delete(delta.old_rows)
            folded += self.gram_state.fold_insert(delta.rows)
            if self.centroid_state is not None:
                self.centroid_state.fold_delete(delta.row_ids, delta.old_rows)
                self.centroid_state.fold_insert(delta.row_ids, delta.rows)
        else:
            raise IncrementalError(f"unknown delta kind {delta.kind!r}")
        return folded

    def _rebuild(self) -> None:
        self.gram_state = GramCofactorState.from_table(
            self.table, self.features, self.label
        )
        if self.centroid_state is not None:
            self.centroid_state = CentroidState.from_table(
                self.table,
                self.features,
                self.centroid_state.centers,
                self.table.row_ids,
            )

    # ------------------------------------------------------------------
    def checkpoint_parity(self) -> bool:
        """Assert bitwise parity of every maintained aggregate against
        full recomputation on the current base table."""
        self.stats.inc("parity_checks")
        if self.staleness != 0:
            raise IncrementalError(
                f"parity checkpoint with {self.staleness} unapplied "
                f"version(s); drain the stream first"
            )
        if not self.gram_state.parity_exact(self.table):
            raise IncrementalError(
                "maintained gram/cofactor aggregates diverged from full "
                f"recomputation (max err {self.gram_state.parity_error(self.table):.3e})"
            )
        if self.centroid_state is not None and not self.centroid_state.parity_exact(
            self.table, self.table.row_ids
        ):
            raise IncrementalError(
                "maintained centroid statistics diverged from full recomputation"
            )
        return True
