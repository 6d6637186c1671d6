"""Compile-time representation planning (the ``reprplan`` pass).

Given a compiled plan and the operands it will run over, decide the
cheapest physical representation for each Data input — dense, or any
registered :class:`repro.operand.Operand` kind (CSR, CLA column groups,
stay-factorized) — the way SystemML's compression planner and Morpheus's
operator rewriter do: estimate how many FLOPs the program spends
touching each input, scale that by what the candidate representation
says it would actually execute (``work_fraction`` of its evidence: nnz
for CSR, dictionary-sized work for CLA, attribute-table-sized work for
factorized), and disqualify candidates the program would force to
densify. Decisions are surfaced in ``explain`` and materialized as
:class:`~repro.lang.ast.Convert` nodes wrapping the Data inputs, so the
physical plan names every conversion.

This module names no kind: each class declares its own evidence, cost
formulas and reasons (:mod:`repro.operand`), and "would this densify" is
answered by walking the DAG with the runtime's own dispatcher
(:func:`repro.runtime.repops.decide`), one input at a time with every
other input in its *bound* form. What a per-input planner cannot see is
a joint outcome — two inputs each planned sparse whose product then
meets as two representations; that is what the feedback loop corrects.

When a :class:`~repro.compiler.feedback.FeedbackStore` is active (or
passed via ``feedback=``), compile-time estimates are *blended* with
observed evidence — realized densities and CLA ratios EMA'd by the
executor, confidence-weighted so a cold store reduces to the pure
estimate — and a representation whose observed densify-fallback rate
crossed the demotion threshold is disqualified outright. Every
:class:`ReprChoice` carries the evidence behind it (``estimated`` vs
``observed``, with the blended confidence) and ``describe()`` prints
it, so a mis-planned input is debuggable from the plan text alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from ..errors import CompilerError
from ..lang.ast import (
    Binary,
    Constant,
    Convert,
    Data,
    Node,
    Transpose,
    op_label,
    unique_nodes,
)
from ..lang.dsl import MExpr
from ..operand import DENSE, SAMPLE_FRACTION, kind_of, registered
from ..runtime.repops import UNKNOWN, Form, decide
from .cost import node_flops
from .feedback import BlendedEstimate, FeedbackStore, active_store, input_key
from .planner import CompiledPlan, compile_expr

#: inputs smaller than this (or vectors) are not worth re-representing
MIN_PLANNING_CELLS = 4096
#: a non-dense candidate must beat dense by at least 5% predicted flops
DENSE_ADVANTAGE = 0.95


@dataclass
class ReprChoice:
    """The planner's decision for one Data input."""

    input: str
    representation: str
    current: str
    reason: str
    est_flops: dict[str, float] = field(default_factory=dict)
    #: evidence behind the decision: per-quantity blended estimates
    #: (``"density"``, ``"cla_ratio"`` -> BlendedEstimate.as_dict())
    #: plus ``"demoted"`` (kind -> observed fallback count).
    evidence: dict[str, dict] = field(default_factory=dict)

    @property
    def needs_convert(self) -> bool:
        return self.representation != self.current

    def evidence_summary(self) -> str:
        """One-line provenance: estimated vs observed, with confidence."""
        parts = []
        for label in ("density", "cla_ratio"):
            ev = self.evidence.get(label)
            if not ev:
                continue
            blend = BlendedEstimate(**ev)
            parts.append(blend.describe(label))
        demoted = self.evidence.get("demoted")
        if demoted:
            parts.append(
                "demoted "
                + ", ".join(
                    f"{kind} ({count} observed fallbacks)"
                    for kind, count in sorted(demoted.items())
                )
            )
        return "; ".join(parts)


@dataclass
class RepresentationPlan:
    """All per-input decisions for one compiled plan."""

    choices: dict[str, ReprChoice]

    def describe(self) -> str:
        lines = []
        for name in sorted(self.choices):
            c = self.choices[name]
            line = f"repr   : {name} -> {c.representation} ({c.reason})"
            summary = c.evidence_summary()
            if summary:
                line += f" [{summary}]"
            lines.append(line)
        return "\n".join(lines)


def plan_representations(
    plan: CompiledPlan | MExpr | Node,
    bindings: dict,
    force: str | dict[str, str] | None = None,
    feedback: "FeedbackStore | bool | None" = None,
) -> CompiledPlan:
    """Annotate a plan with per-input representation decisions.

    Args:
        plan: a compiled plan (raw expressions are compiled first).
        bindings: the operands the plan will execute over — shapes,
            sparsity, and compressibility are estimated from them.
        force: ``"dense"`` pins every input dense (the materialize-
            then-dense baseline); a dict pins individual inputs.
        feedback: observed-cost evidence to blend with the estimates.
            ``None`` uses the active global store (usually none —
            feedback is opt-in), ``False`` ignores feedback entirely,
            and a :class:`~repro.compiler.feedback.FeedbackStore` is
            consulted directly.

    Returns:
        A new :class:`CompiledPlan` with Convert nodes wrapping inputs
        whose planned form differs from their bound form, and
        ``repr_plan`` carrying the :class:`RepresentationPlan`.
    """
    if not isinstance(plan, CompiledPlan):
        plan = compile_expr(plan)
    if isinstance(force, str) and force != "dense":
        raise CompilerError(
            f"force must be 'dense' or a per-input dict, got {force!r}"
        )
    if feedback is None:
        store = active_store()
    elif feedback is False:
        store = None
    else:
        store = feedback

    for name in plan.inputs:
        if name not in bindings:
            raise CompilerError(
                f"cannot plan representations without a binding for {name!r}"
            )
    roots = tuple(plan.outputs.values())
    touched = _touch_flops(roots)
    bound = {
        name: Form(kind_of(bindings[name]), token=name) for name in plan.inputs
    }
    choices = {
        name: _choose(
            name,
            shape,
            bindings[name],
            touched.get(name, 0.0),
            partial(_unsupported, roots, bound, name),
            force if isinstance(force, str) else (force or {}).get(name),
            store,
        )
        for name, shape in plan.inputs.items()
    }

    targets = {
        name: c.representation
        for name, c in choices.items()
        if c.needs_convert
    }
    rp = RepresentationPlan(choices=choices)
    return replace(
        plan,
        outputs=dict(zip(plan.outputs, _wrap_converts(roots, targets))),
        passes=[*plan.passes, "reprplan"],
        repr_plan=rp,
    )


# ----------------------------------------------------------------------
# DAG profiling: per-input touch flops, and what would densify
# ----------------------------------------------------------------------
def _touch_flops(roots: tuple[Node, ...]) -> dict[str, float]:
    """FLOPs of the operators that read each input directly (through
    transposes and conversions)."""
    touched: dict[str, float] = {}
    for node in unique_nodes(*roots):
        if isinstance(node, (Transpose, Convert)):
            continue
        for child in node.children:
            while isinstance(child, (Transpose, Convert)):
                child = child.children[0]
            if isinstance(child, Data):
                touched[child.name] = touched.get(child.name, 0.0) + float(
                    node_flops(node)
                )
    return touched


def _unsupported(
    roots: tuple[Node, ...], bound: dict[str, Form], name: str, kind: str
) -> set[str]:
    """Operators that would densify input ``name`` — or a value derived
    from it that stayed in the representation — if it arrived as
    ``kind`` while every other input keeps its bound form.

    Walks the DAG as the executor would, putting the runtime's own
    dispatch decision (:func:`repro.runtime.repops.decide`) to every
    operator; only operand forms flow, nothing is computed. A 1x1 that
    is not a literal has no value yet, so a kind whose answer depends on
    it is refused, and the label says why.
    """
    forms = {**bound, name: Form(kind, token=name)}
    labels: set[str] = set()
    memo: dict[int, tuple[Form, str | None]] = {}

    def dense(node: Node) -> tuple[Form, None]:
        return Form(scalar=UNKNOWN if node.is_scalar else None), None

    def visit(node: Node) -> tuple[Form, str | None]:
        """The node's form, and the input a representation derives from."""
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        out = dense(node)
        if isinstance(node, Data):
            if forms[node.name].kind != DENSE:
                out = forms[node.name], node.name
        elif isinstance(node, Constant):
            if node.is_scalar:
                out = Form(scalar=node.scalar_value), None
        elif isinstance(node, Convert):
            out = visit(node.child)
        else:
            children = [visit(child) for child in node.children]
            operands = [form for form, _ in children]
            if any(form.kind != DENSE for form in operands):
                dispatch = decide(node, operands)
                run_time = isinstance(node, Binary) and any(
                    form.scalar is UNKNOWN for form in operands
                )
                why = " (scalar known only at run time)" if run_time else ""
                for i in dispatch.densified:
                    if children[i][1] == name:
                        labels.add(op_label(node) + why)
                if dispatch.result is not None:
                    out = dispatch.result, children[dispatch.served][1]
        memo[id(node)] = out
        return out

    for root in roots:
        visit(root)
    return labels


# ----------------------------------------------------------------------
# Per-input decision
# ----------------------------------------------------------------------
def _choose(
    name: str,
    shape: tuple[int, int],
    value,
    touch_flops: float,
    unsupported: Callable[[str], set[str]],
    pinned: str | None,
    store=None,
) -> ReprChoice:
    current = kind_of(value)
    cells = shape[0] * shape[1]
    est_flops = {DENSE: touch_flops}
    evidence: dict[str, dict] = {}
    key = input_key(name, shape)

    if pinned is not None:
        return ReprChoice(name, pinned, current, "forced", est_flops)
    if min(shape) == 1 or cells < MIN_PLANNING_CELLS:
        return ReprChoice(
            name, current, current, "below planning threshold", est_flops
        )

    candidates: dict[str, str] = {}  # representation -> reason
    blocked: set[str] = set()
    dense = np.asarray(value, dtype=np.float64) if current == DENSE else None
    for kind, cls in registered().items():
        if kind == current:
            # a property read off the bound operand itself
            measured = float(value.evidence())
            ev = BlendedEstimate(measured, measured, measured, 1.0, "observed")
        elif current == DENSE:
            sampled = cls.sample_evidence(dense, SAMPLE_FRACTION)
            if sampled is None:
                continue  # cannot be built from values
            if store is not None:
                ev = store.blended(key, cls.evidence_channel, sampled)
            else:
                ev = BlendedEstimate(sampled, sampled, None, 0.0, "estimated")
        else:
            continue  # bound in another kind: only stay-or-densify is planned
        evidence[cls.evidence_channel] = ev.as_dict()
        est_flops[kind] = touch_flops * cls.work_fraction(ev.value)
        labels = unsupported(kind)
        blocked |= labels
        if cls.worth_planning(ev.value) and not labels:
            candidates[kind] = cls.plan_reason(ev.value, kind == current)

    demoted = store.demoted_kinds(key) if store is not None else {}
    demoted_hits = {
        kind: count for kind, count in demoted.items() if kind in candidates
    }
    if demoted_hits:
        evidence["demoted"] = demoted_hits
        for kind in demoted_hits:
            candidates.pop(kind)

    best_rep, best_reason = None, ""
    for rep, reason in candidates.items():
        if est_flops[rep] >= DENSE_ADVANTAGE * est_flops[DENSE]:
            continue
        if best_rep is None or est_flops[rep] < est_flops[best_rep]:
            best_rep, best_reason = rep, reason
    if best_rep is None:
        if demoted_hits:
            reason = (
                ", ".join(sorted(demoted_hits))
                + " demoted by observed densify fallbacks"
            )
        elif blocked:
            reason = "dense; non-dense blocked by " + ", ".join(sorted(blocked))
        else:
            reason = "dense is cheapest"
        return ReprChoice(name, DENSE, current, reason, est_flops, evidence)
    return ReprChoice(
        name,
        best_rep,
        current,
        f"{best_reason}; est flops "
        f"{est_flops[best_rep]:.2e} vs dense {est_flops[DENSE]:.2e}",
        est_flops,
        evidence,
    )


# ----------------------------------------------------------------------
# Convert insertion (preserves DAG sharing)
# ----------------------------------------------------------------------
def _wrap_converts(
    roots: tuple[Node, ...], targets: dict[str, str]
) -> tuple[Node, ...]:
    """One memo across every root, so nodes shared between outputs stay
    shared under their Convert-wrapped inputs."""
    if not targets:
        return roots
    memo: dict[int, Node] = {}

    def visit(node: Node) -> Node:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        if isinstance(node, Data):
            target = targets.get(node.name)
            new = Convert(node, target) if target else node
        elif node.children:
            new_children = [visit(c) for c in node.children]
            if any(a is not b for a, b in zip(new_children, node.children)):
                new = node.with_children(new_children)
            else:
                new = node
        else:
            new = node
        memo[id(node)] = new
        return new

    return tuple(visit(root) for root in roots)
