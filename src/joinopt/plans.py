"""Binary join trees.

A plan is a binary tree of Scan leaves and Join nodes; every base table of
the query appears in exactly one Scan (``simulator.plan_infos`` rejects a
plan that scans a table twice).  The partial-plan MDP over these trees
(states of disjoint fragments, joins of two fragments as actions) works on
fragment summaries and lives in ``simulator``.
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
    "PlanError",
    "plan_repr",
]


class PlanError(ValueError):
    """Raised for malformed plans or illegal joins of plan fragments."""


class JoinOp(Enum):
    HASH = "hash"
    MERGE = "merge"
    NESTED_LOOP = "nested_loop"


# Deterministic tie-break order for the expert optimizer: Hash < Merge < NLJ.
JOIN_OP_RANK = {JoinOp.HASH: 0, JoinOp.MERGE: 1, JoinOp.NESTED_LOOP: 2}
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
