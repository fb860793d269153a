"""Binary join trees.

A plan is a binary tree of Scan leaves and Join nodes; every base table of
the query appears in exactly one Scan (``simulator.plan_infos`` rejects a
plan that scans a table twice or a table outside the query).  ``JOIN_OPS``
lists the operators in rank order, Hash < Merge < NLJ, which the expert
DP's tie-break follows.  The partial-plan MDP over these trees (states of
disjoint fragments, joins of two fragments as actions) works on fragment
summaries and lives in ``simulator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

__all__ = [
    "JoinOp",
    "Scan",
    "Join",
    "PlanNode",
    "plan_repr",
]


class JoinOp(Enum):
    HASH = "hash"
    MERGE = "merge"
    NESTED_LOOP = "nested_loop"


# Every operator, in the expert optimizer's tie-break order: Hash < Merge < NLJ.
JOIN_OPS = (JoinOp.HASH, JoinOp.MERGE, JoinOp.NESTED_LOOP)


@dataclass(frozen=True)
class Scan:
    table: str


@dataclass(frozen=True)
class Join:
    left: "PlanNode"
    right: "PlanNode"
    op: JoinOp


PlanNode = Union[Scan, Join]


def plan_repr(node: PlanNode) -> str:
    """Compact human-readable plan string, e.g. ``(a HASH (b MERGE c))``."""
    if isinstance(node, Scan):
        return node.table
    return f"({plan_repr(node.left)} {node.op.name} {plan_repr(node.right)})"
