"""Multi-output programs: several expressions, one shared DAG.

An iterative algorithm usually needs multiple values per step — the loss
*and* its gradient, the distance matrix *and* its row minima. Compiling
them as one program lets CSE share work *across* outputs: ``X %*% w``
inside the loss and inside the gradient becomes a single node evaluated
once per execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CompilerError
from ..lang.ast import Node, collect_inputs
from ..lang.dsl import MExpr
from ..operand import densify
from .cost import CostEstimate
from .fusion import apply_fusion
from .mmchain import optimize_mmchains
from .rewrites import apply_rewrites


@dataclass
class ProgramPlan:
    """Named output roots over one shared, deduplicated DAG."""

    outputs: dict[str, Node]
    inputs: dict[str, tuple[int, int]]
    passes: list[str] = field(default_factory=list)
    cost: CostEstimate | None = None

    @property
    def num_ops(self) -> int:
        """Distinct operators across all outputs (shared counted once)."""
        seen: set[int] = set()
        count = 0
        from ..lang.ast import Constant, Data

        stack = list(self.outputs.values())
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if not isinstance(node, (Data, Constant)):
                count += 1
            stack.extend(node.children)
        return count


def compile_program(
    expressions: dict[str, MExpr | Node],
    rewrites: bool = True,
    mmchain: bool = True,
    fusion: bool = True,
    cse: bool = True,
) -> ProgramPlan:
    """Compile named expressions into one shared-DAG program.

    Per-expression passes run first; the final hash-consing pass interns
    all outputs into one node universe so identical subexpressions are
    shared across outputs.
    """
    if not expressions:
        raise CompilerError("program needs at least one output expression")
    roots: dict[str, Node] = {}
    for name, expr in expressions.items():
        node = expr.node if isinstance(expr, MExpr) else expr
        if rewrites:
            node = apply_rewrites(node)
        if mmchain:
            node = optimize_mmchains(node)
        if fusion:
            node = apply_fusion(node)
        roots[name] = node

    passes = [
        p
        for p, on in (
            ("rewrites", rewrites),
            ("mmchain", mmchain),
            ("fusion", fusion),
            ("cse", cse),
        )
        if on
    ]

    if cse:
        # One interning table across every output.
        interned: dict[tuple, Node] = {}

        def intern(node: Node) -> Node:
            new_children = [intern(c) for c in node.children]
            if any(nc is not oc for nc, oc in zip(new_children, node.children)):
                node = node.with_children(new_children)
            key = node.key()
            existing = interned.get(key)
            if existing is not None:
                return existing
            interned[key] = node
            return node

        roots = {name: intern(node) for name, node in roots.items()}

    # Combined input map (validated for shape conflicts across outputs).
    inputs: dict[str, tuple[int, int]] = {}
    for node in roots.values():
        for name, shape in collect_inputs(node).items():
            existing = inputs.get(name)
            if existing is not None and existing != shape:
                raise CompilerError(
                    f"input {name!r} used with conflicting shapes "
                    f"{existing} and {shape} across outputs"
                )
            inputs[name] = shape

    # Cost over the union DAG (shared nodes once).
    cost = _union_cost(list(roots.values()))
    return ProgramPlan(outputs=roots, inputs=inputs, passes=passes, cost=cost)


def _union_cost(roots: list[Node]) -> CostEstimate:
    from .cost import node_flops, node_output_bytes
    from ..lang.ast import Constant, Data

    seen: set[int] = set()
    flops = mem = ops = 0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        flops += node_flops(node)
        mem += node_output_bytes(node)
        if not isinstance(node, (Data, Constant)):
            ops += 1
        stack.extend(node.children)
    return CostEstimate(flops=flops, intermediate_bytes=mem, num_ops=ops)


def execute_program(
    plan: ProgramPlan,
    bindings: dict[str, np.ndarray],
    collect_stats: bool = False,
):
    """Evaluate every output over one shared memo table.

    Returns a dict of results (scalars as floats); with
    ``collect_stats``, also the combined :class:`ExecutionStats`.
    """
    from ..runtime.executor import ExecutionStats, _eval, _prepare_bindings

    # Reuse the single-output binding validation via a shim plan.
    shim = _BindingShim(plan.inputs)
    prepared = _prepare_bindings(shim, bindings, force_dense=False)

    stats = ExecutionStats()
    memo: dict[int, np.ndarray] = {}
    dense_cache: dict[int, np.ndarray] = {}
    results = {}
    for name, root in plan.outputs.items():
        value = _eval(root, prepared, memo, stats, dense_cache, False)
        value = densify(value)
        results[name] = float(value[0, 0]) if root.is_scalar else value
    if collect_stats:
        return results, stats
    return results


class _BindingShim:
    """Minimal object exposing .inputs for _prepare_bindings."""

    def __init__(self, inputs: dict[str, tuple[int, int]]):
        self.inputs = inputs
