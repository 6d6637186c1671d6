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
from ..errors import CompilerError
from ..obs import Ledger
from .planner import CompiledPlan, compile_expr, named_sources


class PlanCache:
    """LRU cache of compiled plans keyed by structure + flags."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise CompilerError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = Ledger("plancache", ("hits", "misses", "evictions"))
        self._plans = BoundedCache(capacity, self.stats)

    def get_or_compile(self, expr, **flags: bool) -> CompiledPlan:
        """:func:`compile_expr` of ``expr`` (one expression or a named
        mapping) under ``flags``, keyed by structure and the passes
        turned off."""
        sources = named_sources(expr)
        structure = tuple((name, node.key()) for name, node in sources.items())
        disabled = tuple(sorted(name for name, on in flags.items() if not on))
        return self.lookup(
            (structure, disabled), lambda: compile_expr(sources, **flags)
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


def compile_expr_cached(expr, **flags: bool) -> CompiledPlan:
    """Compile through the process-wide plan cache."""
    return default_plan_cache.get_or_compile(expr, **flags)
