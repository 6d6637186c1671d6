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

The derived state is one *state* with a duck-typed surface —
``rebuild(table)``, ``fold_batch(deltas)`` and ``same_bytes(table)``.
A drain checks each delta in order and folds the clean ones in a row as
one batch, so a round's fixed costs are paid once per drain; a refused
delta raises with those before it applied. The state decides how
``old_rows`` and ``rows`` combine: one signed pass for an aggregate, an
in-place rewrite of an updated key's row for a keyed row store.

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
    :attr:`ERROR`, construct :attr:`state` (``rebuild`` / ``fold_batch``
    / ``same_bytes``) and call :meth:`_rebuild`;
    folding, lineage repair and the parity check are written here once.
    """

    FAULT_SITE = "incremental.apply"
    OBS_PREFIX = "incremental"
    #: the typed error a failed parity check raises
    ERROR = IncrementalError

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
        self.subject = type(self).__name__  # what its errors call it

    # ------------------------------------------------------------------
    @property
    def staleness(self) -> int:
        """How many table versions the derived state lags behind."""
        return self.table.version - self.applied_version

    def drain(self) -> int:
        """Apply every pending delta; returns deltas consumed. Left behind
        the table (a delta refused, or lost last), it raises :attr:`ERROR`."""
        consumed, batch = 0, []
        while (delta := self.stream.poll()) is not None:
            self._admit(delta, batch)
            consumed += 1
        self._fold(batch)
        get_registry().set_gauge(f"{self.OBS_PREFIX}.staleness", self.staleness)
        if self.staleness:
            raise self.ERROR(
                f"{self.subject} is at version {self.applied_version}, its "
                f"table {self.table.name!r} at {self.table.version}: no delta "
                "is pending, so one was refused or lost"
            )
        return consumed

    def apply(self, delta: Delta) -> None:
        """Fold one delta — or recover by lineage recompute."""
        self._admit(delta, batch := [])
        self._fold(batch)

    def _admit(self, delta: Delta, batch: list[Delta]) -> None:
        """Queue a clean delta on ``batch``, or skip or repair it."""
        at = batch[-1].version if batch else self.applied_version
        if delta.version <= at:
            # Already covered by a recompute that read a newer base state.
            self.stats.inc("skipped_stale")
            return
        if delta.version != at + 1:
            return self._recompute(batch, "dropped_deltas")
        try:
            status = fault_point(self.FAULT_SITE, key=delta.version)
        except InjectedFault:
            return self._recompute(batch, "injected_faults")
        if status == "corrupt":
            delta = delta.corrupted()
        if not delta.verify():
            return self._recompute(batch, "corrupt_deltas")
        batch.append(delta)

    def _fold(self, batch: list[Delta]) -> None:
        # zip asks ``batch`` first: an empty one never starts the fold
        for delta, rows in zip(batch, self.state.fold_batch(batch)):
            self.stats.inc("rows_folded", rows)
            self.applied_version = delta.version
            self.stats.inc("deltas_applied")
        batch.clear()

    def _rebuild(self) -> None:
        """Recompute the state from the base table, chaos held off so a
        repair cannot itself be re-injected forever."""
        with no_chaos():
            self.state.rebuild(self.table)

    def _recompute(self, batch: list[Delta], outcome: str) -> None:
        """Lineage repair: fold ``batch``, count ``outcome``, rebuild, then
        fast-forward ``applied_version`` to the base table's — deltas still
        in flight below that version are skipped as stale on arrival."""
        self._fold(batch)
        self.stats.inc(outcome)
        self._rebuild()
        self.applied_version = self.table.version
        self.stats.inc("recomputes")

    def parity(self) -> bool:
        """Assert the state is bitwise what a fresh rebuild of the
        current base table gives (chaos held off)."""
        self.stats.inc("parity_checks")
        if self.staleness != 0:
            raise self.ERROR(
                f"parity check with {self.staleness} unapplied "
                f"version(s); drain the stream first"
            )
        with no_chaos():
            same = self.state.same_bytes(self.table)
        if not same:
            raise self.ERROR(
                f"maintained {type(self.state).__name__} diverged from full "
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
        self.gram_state = self.state = GramCofactorState(features, label)
        self._rebuild()

    #: the name the E25 / E28 oracles call the shared check by
    checkpoint_parity = DeltaConsumer.parity
