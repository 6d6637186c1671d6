"""Common-subexpression elimination via hash-consing.

The rewritten trees are converted into one DAG: structurally identical
subtrees — within one expression or across the named outputs of one
plan — become the *same* Python object, so the executor (which memoizes
on object identity) evaluates each distinct subexpression exactly once.
"""

from __future__ import annotations

from typing import Iterable

from ..lang.ast import Constant, Data, Node, unique_nodes, walk


def hash_cons(roots: Iterable[Node]) -> list[Node]:
    """The roots re-expressed over one table of unique nodes."""
    interned: dict[tuple, Node] = {}

    def intern(node: Node) -> Node:
        new_children = [intern(c) for c in node.children]
        if any(nc is not oc for nc, oc in zip(new_children, node.children)):
            node = node.with_children(new_children)
        return interned.setdefault(node.key(), node)

    return [intern(root) for root in roots]


def count_unique_ops(*roots: Node) -> int:
    """Distinct operator nodes in the DAG (inputs excluded)."""
    return sum(
        not isinstance(node, (Data, Constant)) for node in unique_nodes(*roots)
    )


def count_tree_ops(root: Node) -> int:
    """Operator nodes counted with repetition (i.e. without CSE)."""
    return sum(not isinstance(node, (Data, Constant)) for node in walk(root))
