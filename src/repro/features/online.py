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
from ..resilience import fault_point, no_chaos
from ..storage.table import Table
from .view import FeatureView


class OnlineFeatureServer(Counted):
    """Serves single-entity feature rows bit-identically to offline.

    Args:
        view: the feature view being served.
        source: row source — a
            :class:`~repro.features.store.MaterializedFeatures` or a
            :class:`~repro.features.store.FeatureViewMaintainer`
            (anything with ``row(entity)``).
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
        """One entity's feature row (declaration order, float64).

        Every serve crosses the ``features.serve`` fault site; an
        injected fault (or corrupted read) falls back to recomputing
        the row from the base table under :func:`no_chaos` — by
        row-locality, the same bytes the clean path serves.
        """
        self.counts.inc("serves")
        try:
            status = fault_point(self.FAULT_SITE, key=entity)
        except InjectedFault:
            return self._fallback(entity)
        if status == "corrupt":
            # The read came back untrusted; discard it and recompute.
            return self._fallback(entity)
        return self.source.row(entity)

    def serve_many(self, entities) -> np.ndarray:
        """A (len(entities), F) matrix of serve() rows, in order."""
        rows = [self.serve(e) for e in entities]
        if not rows:
            return np.empty((0, len(self.view.feature_names)))
        return np.array(rows)

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
        return self.view.as_matrix(self.view.compute_columns(one))[0]

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
                served = self.source.row(entity)
                fresh = self.recompute_row(entity)
                if served.tobytes() != fresh.tobytes():
                    raise FeatureStoreError(
                        f"online/offline parity violated for entity "
                        f"{entity!r} in view {self.view.name!r}"
                    )
        return True
