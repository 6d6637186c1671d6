"""Compilation pipeline: rewrites -> mmchain -> fusion -> CSE.

:func:`compile_expr` takes a DSL expression — or a ``{name: expression}``
mapping, the several values one step of an iterative algorithm needs —
and produces a :class:`CompiledPlan` whose DAG the runtime interprets.
Each pass can be toggled off, which is how the benchmark suite ablates
the optimizer.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..errors import CompilerError
from ..lang.ast import Node, collect_inputs, pretty
from ..lang.dsl import MExpr
from .cost import CostEstimate, estimate
from .cse import count_unique_ops, hash_cons
from .fusion import apply_fusion
from .mmchain import optimize_mmchains
from .rewrites import apply_rewrites


@dataclass
class CompiledPlan:
    """Named output roots over one shared DAG, plus compilation metadata."""

    outputs: dict[str, Node]
    sources: dict[str, Node]
    inputs: dict[str, tuple[int, int]]
    passes: list[str] = field(default_factory=list)
    cost_before: CostEstimate | None = None
    cost_after: CostEstimate | None = None
    #: set by repro.compiler.reprplan.plan_representations
    repr_plan: object | None = None

    @property
    def root(self) -> Node:
        """The DAG of a single-output plan."""
        if len(self.outputs) != 1:
            raise CompilerError(
                f"plan has {len(self.outputs)} outputs "
                f"({', '.join(self.outputs)}); read plan.outputs[name]"
            )
        return next(iter(self.outputs.values()))

    @property
    def output_shape(self) -> tuple[int, int]:
        return self.root.shape

    @property
    def num_ops(self) -> int:
        """Distinct operators across all outputs (shared counted once)."""
        return count_unique_ops(*self.outputs.values())

    def explain(self) -> str:
        """Human-readable plan summary (source, passes, costs, plan)."""

        def rendered(tag: str, nodes: dict[str, Node]) -> list[str]:
            if len(nodes) == 1:
                return [tag + pretty(node) for node in nodes.values()]
            return [
                f"{tag}{name} = {pretty(node)}" for name, node in nodes.items()
            ]

        lines = rendered("source : ", self.sources)
        lines.append(
            f"passes : {', '.join(self.passes) if self.passes else '(none)'}"
        )
        if self.cost_before is not None:
            lines.append(f"before : {self.cost_before}")
        if self.cost_after is not None:
            lines.append(f"after  : {self.cost_after}")
        if self.repr_plan is not None:
            lines.extend(self.repr_plan.describe().splitlines())
        lines.extend(rendered("plan   : ", self.outputs))
        return "\n".join(lines)


def named_sources(
    expr: MExpr | Node | Mapping[str, MExpr | Node],
) -> dict[str, Node]:
    """``{name: AST}`` of what is being compiled; a lone expression is
    the plan's sole output, named ``"out"``."""
    named = expr if isinstance(expr, Mapping) else {"out": expr}
    return {
        name: e.node if isinstance(e, MExpr) else e for name, e in named.items()
    }


def compile_expr(
    expr: MExpr | Node | Mapping[str, MExpr | Node],
    rewrites: bool = True,
    mmchain: bool = True,
    fusion: bool = True,
    cse: bool = True,
) -> CompiledPlan:
    """Compile one expression, or named expressions, into an optimized plan.

    Pass order matters: algebraic rewrites expose chains, chain
    optimization fixes association before fusion pattern-matches shapes,
    and CSE runs last so every pass's output is deduplicated — over one
    interning table for all outputs, so ``X %*% w`` inside a loss and
    inside its gradient is a single node evaluated once per execution.
    Costs are priced over the union DAG (shared nodes once).
    """
    sources = named_sources(expr)
    if not sources:
        raise CompilerError("a plan needs at least one output expression")
    inputs = collect_inputs(*sources.values())
    before = estimate(*hash_cons(sources.values()))

    roots = list(sources.values())
    passes = []
    if rewrites:
        roots = [apply_rewrites(root) for root in roots]
        passes.append("rewrites")
    if mmchain:
        roots = [optimize_mmchains(root) for root in roots]
        passes.append("mmchain")
    if fusion:
        roots = [apply_fusion(root) for root in roots]
        passes.append("fusion")
    # costs are priced on the deduplicated DAG whether or not the plan is
    shared = hash_cons(roots)
    if cse:
        roots = shared
        passes.append("cse")
    return CompiledPlan(
        outputs=dict(zip(sources, roots)),
        sources=sources,
        inputs=inputs,
        passes=passes,
        cost_before=before,
        cost_after=estimate(*shared),
    )
