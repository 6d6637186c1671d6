"""Continuous retraining: change stream -> aggregates -> ``promote``.

The :class:`ContinuousTrainer` closes the streaming loop. It drains the
maintainer, and every ``refresh_every`` applied table versions solves
fresh ridge weights from the maintained gram/cofactor state — the same
``solve(X'X + l2*I, X'y)`` expression a snapshot retrain evaluates, at
O(d^3) instead of O(n * d^2) — registers the result as a new model
version (with lineage back to the version it supersedes), and hot-swaps
it into the :class:`~repro.serving.ShardedServer` through its
``promote`` alias path. Promotion eagerly invalidates the
endpoint's prediction cache and compiled scorers, so in-flight requests
finish on the old version and the next request scores on the refreshed
one.
"""

from __future__ import annotations

from ..lifecycle.registry import ModelRegistry, ModelVersion
from ..ml.linreg import LinearRegression
from ..obs import Counted, Ledger
from .maintainer import IncrementalMaintainer


class ContinuousTrainer(Counted):
    """Drives model refreshes from a maintained change stream.

    Args:
        maintainer: the aggregate maintainer to drain and read.
        registry: where refreshed versions are registered.
        model_name: registry name for the regression model.
        l2: ridge penalty used at every refresh.
        refresh_every: refresh once at least this many new table
            versions have been applied since the last refresh.
        server / endpoint: a ``ShardedServer`` and one of its endpoints;
            when given, every refresh is promoted to the endpoint's
            stable alias (cache eagerly invalidated).
    """

    def __init__(
        self,
        maintainer: IncrementalMaintainer,
        registry: ModelRegistry,
        model_name: str = "incremental-ridge",
        l2: float = 0.0,
        refresh_every: int = 1,
        server=None,
        endpoint: str | None = None,
    ):
        self.maintainer = maintainer
        self.registry = registry
        self.model_name = model_name
        self.l2 = l2
        self.refresh_every = max(1, refresh_every)
        self.server = server
        self.endpoint = endpoint
        self.counts = Ledger("incremental", ("refreshes",))
        self.last_refresh_version = maintainer.applied_version
        self.latest: ModelVersion | None = None

    # ------------------------------------------------------------------
    def step(self) -> ModelVersion | None:
        """Drain pending deltas; refresh + promote when due."""
        self.maintainer.drain()
        behind = self.maintainer.applied_version - self.last_refresh_version
        if behind >= self.refresh_every:
            return self.refresh()
        return None

    def refresh(self) -> ModelVersion:
        """Solve, register, and (when wired) promote a new version."""
        state = self.maintainer.gram_state
        model = LinearRegression(
            solver="normal", l2=self.l2, fit_intercept=False
        )
        # Fitted from the maintained aggregates — identical to what
        # fit() on the full snapshot would produce.
        model._unpack(state.solve_ridge(self.l2))
        entry = self.registry.register(
            self.model_name,
            model,
            params={
                "l2": self.l2,
                "table_version": self.maintainer.applied_version,
                "source": "incremental",
            },
            metrics={"n_rows": float(state.n_rows)},
            parent_version=(
                self.latest.version if self.latest is not None else None
            ),
        )
        if self.server is not None and self.endpoint is not None:
            self.server.promote(self.endpoint, entry.version)
        self.latest = entry
        self.counts.inc("refreshes")
        self.last_refresh_version = self.maintainer.applied_version
        return entry
