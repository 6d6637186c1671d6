"""Online feature serving with exact offline parity.

The online path answers "features for entity X, now" out of a
materialized (or incrementally maintained) source — and guarantees the
answer is **bitwise** the offline bytes. The guarantee holds for the
same reason the serving scorer's does: there is exactly one computation
path. Row-local features apply identical per-element float operations
whether computed over the full base table or over the single row, so
the fallback recompute (taken when chaos kills a read at the
``features.serve`` fault site) produces the same bits the materialized
slice holds. :meth:`OnlineFeatureServer.parity_check` is the oracle
that proves it on demand, and the local ledger (serves, fallbacks,
parity checks) is exact — replayable against the chaos plan's own
injection count.
"""

from __future__ import annotations

import numpy as np

from ..errors import FeatureStoreError, InjectedFault
from ..obs import Counted, Ledger
from ..resilience import active_chaos, fault_point, no_chaos
from ..storage.table import Table
from .view import FeatureView


class OnlineFeatureServer(Counted):
    """Serves entities' feature rows bit-identically to offline.

    Args:
        view: the feature view being served.
        source: row source — a
            :class:`~repro.features.store.MaterializedFeatures` or a
            :class:`~repro.features.store.FeatureViewMaintainer`
            (anything with a :class:`~repro.features.store.FeatureRows`
            at ``rows``; every served or checked row is read there).
        table: the base table for on-demand recompute. Defaults to the
            source's own base table when it has one (a maintainer does).
    """

    #: chaos site crossed by every online serve.
    FAULT_SITE = "features.serve"

    def __init__(
        self,
        view: FeatureView,
        source,
        table: Table | None = None,
    ):
        self.view = view
        self.source = source
        self.table = table if table is not None else getattr(
            source, "table", None
        )
        if self.table is None:
            raise FeatureStoreError(
                "online server needs a base table for fallback recompute"
            )
        self.counts = Ledger(
            "features", ("serves", "fallbacks", "parity_checks")
        )

    # ------------------------------------------------------------------
    def serve(self, entity) -> np.ndarray:
        """One entity's feature row (declaration order, float64): the
        one-entity call of :meth:`serve_many`."""
        return self.serve_many((entity,))[0]

    def serve_many(self, entities) -> np.ndarray:
        """A (len(entities), F) matrix of the entities' rows, in order.

        Each entity is decided on its own, in order: while a chaos plan
        is installed it crosses the ``features.serve`` fault site, and a
        clean read has its slot looked up, so an unknown entity raises at
        its own place in the walk. An injected fault (or corrupted read)
        falls back to recomputing that row from the base table under
        :func:`no_chaos` — by row-locality, the same bytes the clean path
        serves. With no plan installed no crossing could decide anything:
        one :meth:`FeatureRows.slots` lookup resolves the call, one ledger
        write counts it up to and including an unknown entity, which
        raises, and one gather serves it.
        """
        rows = self.source.rows
        if active_chaos() is None:
            slots = rows.slots(entities)
            found = len(slots)
            if found < len(entities):  # served up to and including it
                self.counts.inc("serves", found + 1)
                raise rows.missing(entities[found])
            if found:
                self.counts.inc("serves", found)
            return rows.take(slots)
        picked: list[int] = []  # slots of the clean reads, in order
        recomputed: dict[int, np.ndarray] = {}  # position -> fallback row
        asked = 0
        try:
            for asked, entity in enumerate(entities, 1):
                try:
                    status = fault_point(self.FAULT_SITE, key=entity)
                except InjectedFault:
                    status = "corrupt"  # the read failed: recompute
                if status == "corrupt":
                    # untrusted read: discard it and recompute the row
                    recomputed[asked - 1] = self._fallback(entity)
                    continue
                picked.append(rows.slot(entity))
        finally:
            if asked:
                self.counts.inc("serves", asked)
        gathered = rows.take(picked)
        if not recomputed:
            return gathered
        out = np.empty((asked, gathered.shape[1]))
        clean_rows = np.ones(asked, dtype=bool)
        clean_rows[list(recomputed)] = False
        out[clean_rows] = gathered
        for position, row in recomputed.items():
            out[position] = row
        return out

    def _fallback(self, entity) -> np.ndarray:
        self.counts.inc("fallbacks")
        with no_chaos():
            return self.recompute_row(entity)

    def recompute_row(self, entity) -> np.ndarray:
        """Compute one entity's features from base-table bytes alone."""
        keys = self.table.column(self.view.entity_key)
        positions = np.flatnonzero(keys == entity)
        if len(positions) != 1:
            raise FeatureStoreError(
                f"entity {entity!r} matches {len(positions)} base rows; "
                f"need exactly 1"
            )
        one = self.table.take(positions)
        return self.view.compute_columns(one)[0]

    # ------------------------------------------------------------------
    def parity_check(self, entities=None) -> bool:
        """Oracle: served bytes == recomputed bytes, for every entity.

        Runs with chaos held off (this is the reference comparison, not
        a resilience test) and raises :class:`FeatureStoreError` on the
        first divergent entity.
        """
        self.counts.inc("parity_checks")
        if entities is None:
            entities = self.table.column(self.view.entity_key).tolist()
        with no_chaos():
            for entity in entities:
                served = self.source.rows.row(entity)
                fresh = self.recompute_row(entity)
                if served.tobytes() != fresh.tobytes():
                    raise FeatureStoreError(
                        f"online/offline parity violated for entity "
                        f"{entity!r} in view {self.view.name!r}"
                    )
        return True
