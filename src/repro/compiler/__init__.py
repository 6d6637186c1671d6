"""Optimizing compiler for the linear-algebra DSL.

One pipeline (:func:`compile_expr`) over one plan class
(:class:`CompiledPlan`: one expression or several named outputs sharing
one DAG). Passes (each independently toggleable for ablation):

* algebraic rewrites and constant folding (:mod:`.rewrites`)
* matrix-multiplication-chain re-parenthesization (:mod:`.mmchain`)
* operator fusion into single-pass kernels (:mod:`.fusion`)
* common-subexpression elimination (:mod:`.cse`)

with an analytical FLOP/memory cost model (:mod:`.cost`).
"""

from .cache import (
    PlanCache,
    compile_expr_cached,
    default_plan_cache,
)
from .cost import CostEstimate, estimate, node_flops, node_output_bytes
from .feedback import (
    BlendedEstimate,
    FeedbackStore,
    SitePolicy,
    active_store,
    feedback_scope,
)
from .cse import count_tree_ops, count_unique_ops
from .fusion import apply_fusion, fused_kinds
from .mmchain import optimize_mmchains
from .planner import CompiledPlan, compile_expr
from .reprplan import (
    ReprChoice,
    RepresentationPlan,
    plan_representations,
)
from .rewrites import apply_rewrites
from .sparsity import propagate_sparsity

__all__ = [
    "BlendedEstimate",
    "CompiledPlan",
    "FeedbackStore",
    "SitePolicy",
    "active_store",
    "feedback_scope",
    "PlanCache",
    "compile_expr_cached",
    "default_plan_cache",
    "CostEstimate",
    "ReprChoice",
    "RepresentationPlan",
    "plan_representations",
    "apply_fusion",
    "apply_rewrites",
    "compile_expr",
    "count_tree_ops",
    "count_unique_ops",
    "estimate",
    "fused_kinds",
    "node_flops",
    "node_output_bytes",
    "optimize_mmchains",
    "propagate_sparsity",
]
