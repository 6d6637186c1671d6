"""Plan interpreter.

Evaluates a compiled DAG in one loop over its *schedule*, built once
per plan: the distinct nodes (CSE-shared subexpressions run once) in
topological order with their op labels and FLOP counts. Each step still
checks its operands (representation dispatch, Convert targets, a per-op
span under tracing). Collects :class:`ExecutionStats` (per-op counts,
FLOP estimate, intermediate-byte high-water mark) that the benchmark
suite uses to attribute optimizer wins.

Bindings may be dense numpy arrays or any of the storage
representations — :class:`~repro.compression.CompressedMatrix` (CLA),
:class:`~repro.sparse.CSRMatrix`, or
:class:`~repro.factorized.NormalizedMatrix` (every
:class:`repro.operand.Operand`). Non-dense operands are
dispatched to their native kernels via :mod:`repro.runtime.repops`;
operators a representation cannot serve densify it once per execution
and record the fallback in :attr:`ExecutionStats.densify_fallbacks`.
Passing ``representation="dense"`` densifies every binding up front and
ignores Convert targets, reproducing the dense-only interpreter exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler import feedback as _feedback
from ..compiler.cost import node_flops
from ..compiler.planner import CompiledPlan, compile_expr
from ..errors import ExecutionError
from ..obs import Ledger, get_registry, span, tracing_enabled
from ..lang.ast import Constant, Convert, Data, Node, op_label, unique_nodes
from ..lang.dsl import MExpr
from . import repops
from .ops import apply_node


@dataclass
class ExecutionStats:
    """What one plan execution actually did."""

    op_counts: dict[str, int] = field(default_factory=dict)
    flops: int = 0
    intermediate_bytes: int = 0
    #: ops served by a representation's native kernel, e.g. "matmul[cla]"
    native_repr_ops: dict[str, int] = field(default_factory=dict)
    #: ops that had to densify a non-dense operand, keyed by op label
    densify_fallbacks: dict[str, int] = field(default_factory=dict)
    #: densify fallbacks tallied by the operand's representation kind
    fallback_kinds: dict[str, int] = field(default_factory=dict)
    #: representation conversions performed by Convert nodes, e.g. "dense->cla"
    converts: dict[str, int] = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        return sum(self.op_counts.values())

    @property
    def fallback_count(self) -> int:
        return sum(self.densify_fallbacks.values())

    def record(self, label: str, flops: int, result_bytes: int) -> None:
        self.op_counts[label] = self.op_counts.get(label, 0) + 1
        self.flops += flops
        self.intermediate_bytes += result_bytes

    def note_native(self, label: str) -> None:
        self.native_repr_ops[label] = self.native_repr_ops.get(label, 0) + 1

    def note_fallback(self, label: str, kind: str) -> None:
        self.densify_fallbacks[label] = (
            self.densify_fallbacks.get(label, 0) + 1
        )
        self.fallback_kinds[kind] = self.fallback_kinds.get(kind, 0) + 1

    def note_convert(self, desc: str, nbytes: int) -> None:
        self.converts[desc] = self.converts.get(desc, 0) + 1
        self.intermediate_bytes += nbytes


def execute(
    plan: CompiledPlan | MExpr | Node | dict[str, MExpr | Node],
    bindings: dict[str, object] | None = None,
    collect_stats: bool = False,
    representation: str | None = None,
):
    """Run a plan (or compile-and-run raw expressions).

    Every output of the plan is evaluated in one pass over the plan's
    schedule, so a node shared between outputs runs once, inside one
    span and one published :class:`ExecutionStats`.

    Args:
        bindings: name -> operand for every Data input: a numpy array
            (vectors may be 1-D; they are reshaped to columns) or a
            CompressedMatrix / CSRMatrix / NormalizedMatrix, executed on
            its native kernels. Shapes must match declarations.
        collect_stats: also return :class:`ExecutionStats`.
        representation: ``None`` executes operands in their bound form;
            ``"dense"`` densifies every binding up front and disables
            Convert nodes — exactly the dense-only interpreter.

    Returns:
        The result array (scalars as Python floats) of a single-output
        plan, ``{name: result}`` for a plan with several outputs — or
        ``(that, stats)`` when ``collect_stats`` is set.
    """
    if representation not in (None, "dense"):
        raise ExecutionError(
            f"representation must be None or 'dense', got {representation!r}; "
            "use repro.compiler.plan_representations to target others"
        )
    if not isinstance(plan, CompiledPlan):
        plan = compile_expr(plan)
    force_dense = representation == "dense"
    prepared = _prepare_bindings(plan, bindings or {}, force_dense)

    store = _feedback.active_store()
    stats = ExecutionStats()
    steps, outputs, root = _schedule(plan)
    exec_span = span(
        "executor.execute",
        root=root,
        inputs=len(plan.inputs),
        force_dense=force_dense,
    )
    try:
        with exec_span:
            values = _run(steps, prepared, stats, force_dense)
            out = {}
            for name, at, is_scalar in outputs:
                result = values[at]
                if repops.is_representation(result):
                    stats.note_convert(
                        f"{repops.kind_of(result)}->dense(output)", 0
                    )
                    result = repops.densify(result)
                out[name] = float(result[0, 0]) if is_scalar else result
            if len(out) == 1:
                (out,) = out.values()
    finally:
        _publish_execution(stats, exec_span)
        if store is not None:
            try:
                store.observe_execution(prepared, stats)
            except Exception:
                # Feedback is advisory: a broken store must never fail
                # the execution it was watching.
                get_registry().inc("feedback.observe_errors")
    return (out, stats) if collect_stats else out


#: every execution's counts, ``executor.<field>`` in the registry
_COUNTS = Ledger("executor", (
    "executions", "ops", "flops", "intermediate_bytes", "native_repr_ops",
    "densify_fallbacks", "converts",
))


def _publish_execution(stats: ExecutionStats, exec_span) -> None:
    """Add one execution's stats to the executor's ledger, in one cell.

    ``ExecutionStats`` stays the per-run view callers already consume;
    the registry pulls the ledger, so one report sees every layer.
    """
    native = sum(stats.native_repr_ops.values())
    counts = (
        1, stats.total_ops, stats.flops, stats.intermediate_bytes, native,
        stats.fallback_count, sum(stats.converts.values()),
    )
    for slot, n in zip(_COUNTS.cell().values(), counts):  # field order
        slot[0] += n
        slot[1] += 1
    exec_span.set("ops", stats.total_ops)
    exec_span.set("flops", stats.flops)
    exec_span.set("densify_fallbacks", stats.fallback_count)
    exec_span.set("native_repr_ops", native)


def _prepare_bindings(
    plan: CompiledPlan, bindings: dict[str, object], force_dense: bool
) -> dict[str, object]:
    prepared = {}
    for name, shape in plan.inputs.items():
        if name not in bindings:
            raise ExecutionError(
                f"missing binding for input {name!r}; "
                f"required: {sorted(plan.inputs)}"
            )
        value = bindings[name]
        if repops.is_representation(value):
            if force_dense:
                value = repops.densify(value)
            elif tuple(value.shape) != shape:
                raise ExecutionError(
                    f"input {name!r} declared {shape} but bound "
                    f"{tuple(value.shape)}"
                )
            prepared[name] = value
            continue
        try:
            arr = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"input {name!r} is not numeric: {type(value).__name__} ({exc})"
            ) from exc
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape != shape:
            raise ExecutionError(
                f"input {name!r} declared {shape} but bound {arr.shape}"
            )
        prepared[name] = arr
    return prepared


def _schedule(plan: CompiledPlan) -> tuple:
    """Built once per plan: ``(node, label, flops, child positions)`` per
    node in :func:`unique_nodes` order, ``(name, position, is_scalar)``
    per output, and the span's root label."""
    if plan.schedule is None:
        steps, at = [], {}
        for node in unique_nodes(*plan.outputs.values()):
            children = [at[id(c)] for c in node.children]
            at[id(node)] = len(steps)
            steps.append((node, op_label(node), node_flops(node), children))
        roots = plan.outputs.items()
        outputs = [(name, at[id(r)], r.is_scalar) for name, r in roots]
        plan.schedule = steps, outputs, ",".join(op_label(r) for _, r in roots)
    return plan.schedule


def _run(steps, bindings, stats: ExecutionStats, force_dense: bool) -> list:
    """Every step's value, in schedule order."""
    values: list = []
    cache: dict[int, np.ndarray] = {}  # each operand densified once
    for node, label, flops, children in steps:
        args = [values[c] for c in children]
        if isinstance(node, Data):
            result = bindings[node.name]
        elif isinstance(node, Constant):
            result = node.value
        elif isinstance(node, Convert):
            result = _eval_convert(node, args[0], stats, force_dense)
        elif tracing_enabled():
            with span("executor.op", op=label, shape=str(node.shape)):
                result = _eval_physical(node, label, flops, args, stats, cache)
        else:
            result = _eval_physical(node, label, flops, args, stats, cache)
        values.append(result)
    return values


def _eval_physical(
    node: Node,
    label: str,
    flops: int,
    children: list,
    stats: ExecutionStats,
    dense_cache: dict[int, np.ndarray],
):
    """Run one physical operator over already-evaluated children."""
    if any(repops.is_representation(c) for c in children):
        result = repops.eval_node(node, children, stats, dense_cache)
        if repops.is_representation(result):
            if tuple(result.shape) != node.shape:
                raise ExecutionError(
                    f"representation kernel produced shape "
                    f"{tuple(result.shape)} for node of shape {node.shape}"
                )
            stats.record(label, flops, repops.operand_bytes(result))
            return result
    else:
        result = apply_node(node, children)
    result = np.asarray(result, dtype=np.float64)
    if result.shape != node.shape:
        # Broadcasting of (1,1) scalars can shrink shapes; normalize.
        result = np.broadcast_to(result, node.shape).copy()
    stats.record(label, flops, result.nbytes)
    return result


def _eval_convert(
    node: Convert, child, stats: ExecutionStats, force_dense: bool
):
    """Retarget an operand's physical representation (identity if done)."""
    if force_dense:
        return repops.densify(child)
    current = repops.kind_of(child)
    if current == node.target:
        return child
    converted = repops.convert_value(child, node.target)
    stats.note_convert(
        f"{current}->{node.target}", repops.operand_bytes(converted)
    )
    return converted
