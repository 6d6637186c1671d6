"""Per-execution reuse context: the executor's view of the store.

Built once per :func:`repro.runtime.executor.execute` call when a
materialization store is active, a :class:`ReuseContext` decides which
nodes of the compiled plan are *candidates* (non-leaf operators whose
estimated flops clear the store's admission floor — fingerprinting the
rest would cost more than it saves), fingerprints each candidate against
the prepared bindings, and then answers two questions on the hot path:

* :meth:`lookup` — is this node's value already materialized? A hit
  returns a private copy and the executor skips the whole subtree; the
  skipped work is exactly the entry's lineage, which is why a corrupted
  entry needs no special repair path — the miss it degrades to *is* the
  lineage recompute.
* :meth:`offer` — a candidate was just computed cold; hand the value to
  the store (admission may still reject it). Lineage children are the
  nearest candidate descendants, so the provenance graph mirrors the
  materialized granularity rather than every AST node.
"""

from __future__ import annotations

import numpy as np

from ..compiler.cost import node_flops
from ..lang.ast import Constant, Convert, Data, Node, unique_nodes
from .fingerprint import Fingerprint, canonical_plan, fingerprint_node
from .store import MaterializationStore


class ReuseContext:
    """Fingerprint table for one plan execution against one store."""

    def __init__(
        self,
        plan,
        bindings: dict[str, object],
        store: MaterializationStore,
    ):
        self.store = store
        self.flags = "|".join(plan.passes)
        self._fps: dict[int, Fingerprint] = {}
        self._canon: dict[int, str] = {}
        for node in unique_nodes(*plan.outputs.values()):
            if isinstance(node, (Data, Constant, Convert)):
                continue
            if node_flops(node) < store.min_flops:
                continue
            self._fps[id(node)] = fingerprint_node(node, bindings, self.flags)
            self._canon[id(node)] = canonical_plan(node)[0]

    @property
    def candidates(self) -> int:
        return len(self._fps)

    def fingerprint(self, node: Node) -> Fingerprint | None:
        return self._fps.get(id(node))

    def lookup(self, node: Node):
        """The materialized value for this node, or ``None``.

        Dense hits are returned as copies so downstream in-place use can
        never reach the store's resident bytes.
        """
        fp = self._fps.get(id(node))
        if fp is None:
            return None
        value = self.store.lookup(fp)
        if isinstance(value, np.ndarray):
            return value.copy()
        return value

    def offer(self, node: Node, value, label: str = "") -> bool:
        """Hand one cold-computed candidate value to the store."""
        fp = self._fps.get(id(node))
        if fp is None:
            return False
        return self.store.put(
            fp,
            value,
            label=label,
            flops=float(node_flops(node)),
            structural=self._canon.get(id(node), ""),
            children=self._child_keys(node),
        )

    def _child_keys(self, node: Node) -> tuple[str, ...]:
        """Keys of the nearest candidate descendants (lineage children)."""
        keys: list[str] = []
        stack = list(node.children)
        while stack:
            child = stack.pop()
            fp = self._fps.get(id(child))
            if fp is not None:
                keys.append(fp.key)
            else:
                stack.extend(child.children)
        return tuple(sorted(set(keys)))
