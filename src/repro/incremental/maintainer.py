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

The derived state is a list of *states* with one duck-typed surface —
``rebuild(table)``, ``fold(row_ids, rows, sign) -> rows counted`` and
``same_bytes(table)`` — so a delta is applied the same way whatever it
maintains: ``old_rows`` subtracted, then ``rows`` added (an update is
the two in sequence; no state sees the delta's kind).

:class:`IncrementalMaintainer` is the ML-aggregate consumer
(gram/cofactor, the F-IVM workload); the feature store's
view maintainer (:class:`repro.features.FeatureViewMaintainer`) is a
second subclass of the same discipline.

Every outcome is one write to the consumer's ``stats``
:class:`~repro.obs.Ledger`, which counts it on the instance and as
``<prefix>.*`` in the registry (``incremental.*`` for the maintainer).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import IncrementalError, InjectedFault
from ..obs import Ledger, get_registry
from ..resilience import fault_point, no_chaos
from .aggregates import GramCofactorState
from .stream import ChangeStream, Delta, DynamicTable


class DeltaConsumer:
    """Applies a change stream to derived state, or repairs by lineage.

    Subclasses set :attr:`FAULT_SITE` / :attr:`OBS_PREFIX` /
    :attr:`ERROR`, construct :attr:`states` and call :meth:`_rebuild`;
    folding, lineage repair and the parity check are written here once.
    """

    FAULT_SITE = "incremental.apply"
    OBS_PREFIX = "incremental"
    #: the typed error a failed parity check raises
    ERROR = IncrementalError

    def __init__(self, table: DynamicTable, stream: ChangeStream):
        self.table = table
        self.stream = stream
        #: the maintained states, each ``rebuild`` / ``fold`` / ``same_bytes``
        self.states: list = []
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

    def _fold(self, delta: Delta) -> int:
        """One verified, in-order delta as signed batches: ``old_rows``
        at -1, then ``rows`` at +1, through every state. A batch is
        counted once, as the first state counts it."""
        folded = 0
        for rows, sign in ((delta.old_rows, -1), (delta.rows, 1)):
            if rows is not None:
                counted = [
                    state.fold(delta.row_ids, rows, sign)
                    for state in self.states
                ]
                folded += counted[0]
        return folded

    def _rebuild(self) -> None:
        """Recompute every state from the base table, chaos held off so
        a repair cannot itself be re-injected forever."""
        with no_chaos():
            for state in self.states:
                state.rebuild(self.table)

    def _recompute(self, reason: str) -> None:
        """Lineage repair: rebuild, then fast-forward ``applied_version``
        to the base table's current version — deltas still in flight
        below that version are skipped as stale when they arrive."""
        self._rebuild()
        self.applied_version = self.table.version
        self.stats.inc("recomputes")

    def parity(self) -> bool:
        """Assert every state is bitwise what a fresh rebuild of the
        current base table gives (chaos held off)."""
        self.stats.inc("parity_checks")
        if self.staleness != 0:
            raise self.ERROR(
                f"parity check with {self.staleness} unapplied "
                f"version(s); drain the stream first"
            )
        with no_chaos():
            diverged = [
                type(state).__name__ for state in self.states
                if not state.same_bytes(self.table)
            ]
        if diverged:
            raise self.ERROR(
                f"maintained {', '.join(diverged)} diverged from full "
                f"recomputation of the base table"
            )
        return True


class IncrementalMaintainer(DeltaConsumer):
    """Keeps ML aggregates in lockstep with a dynamic table.

    Args:
        table: the mutable base table (also the lineage source).
        stream: the change stream to consume (subscribed by the caller).
        features / label: columns feeding the gram/cofactor state.
    """

    def __init__(
        self,
        table: DynamicTable,
        stream: ChangeStream,
        features: Sequence[str],
        label: str,
    ):
        super().__init__(table, stream)
        self.gram_state = GramCofactorState(features, label)
        self.states = [self.gram_state]
        self._rebuild()

    #: the name the E25 / E28 oracles call the shared check by
    checkpoint_parity = DeltaConsumer.parity
