"""Plan caching.

Iterative ML drivers compile the same expression shape thousands of
times (one gradient per iteration, one distance matrix per Lloyd step).
A :class:`PlanCache` memoizes compiled plans on the expression's
structural key plus the optimizer flags, LRU-bounded — the plan-cache
component of declarative ML compilers.

The cache owns only its key; ordering and eviction are
:class:`~repro.cache.BoundedCache` at cost 1 per plan, and hits, misses
and evictions are one :class:`~repro.obs.Ledger` (``cache.stats``,
``plancache.*`` in the registry) so run reports see compilation caching
next to bufferpool and materialization behavior.
"""

from __future__ import annotations

from ..cache import BoundedCache
from ..lang.ast import Node
from ..lang.dsl import MExpr
from ..obs import Ledger
from .planner import CompiledPlan, compile_expr


class PlanCache:
    """LRU cache of compiled plans keyed by structure + flags."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = Ledger("plancache", ("hits", "misses", "evictions"))
        self._plans = BoundedCache(capacity, self.stats)

    def get_or_compile(
        self,
        expr: MExpr | Node,
        rewrites: bool = True,
        mmchain: bool = True,
        fusion: bool = True,
        cse: bool = True,
    ) -> CompiledPlan:
        node = expr.node if isinstance(expr, MExpr) else expr
        return self.lookup(
            (node.key(), rewrites, mmchain, fusion, cse),
            lambda: compile_expr(
                node, rewrites=rewrites, mmchain=mmchain, fusion=fusion, cse=cse
            ),
        )

    def lookup(self, key, build) -> CompiledPlan:
        """The plan resident under ``key``, else ``build()`` cached under
        it — for a caller whose own key is cheaper than instantiating
        the expression a structural key is taken from."""
        cached = self._plans.get(key)
        if cached is not None:
            self.stats.inc("hits")
            return cached
        self.stats.inc("misses")
        plan = build()
        self._plans.put(key, plan)
        return plan

    def clear(self) -> None:
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)


#: process-wide default cache used by :func:`compile_expr_cached`
default_plan_cache = PlanCache()


def compile_expr_cached(expr: MExpr | Node, **flags: bool) -> CompiledPlan:
    """Compile through the process-wide plan cache."""
    return default_plan_cache.get_or_compile(expr, **flags)
