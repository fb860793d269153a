"""Knowledge transfer: workload partitioning and meta-learned initialization.

Queries, each given as its compiled ``simulator.QueryContext``, are scored by
one of four partitioning policies, sorted ascending and chunked into equally
sized tasks (the remainder joins the last task).  The estimated-cost policy
reads the context's expert plan, so the DP runs once per query however many
policies and embeddings ask for it.  Each
candidate partition is rated with the Davies-Bouldin index over a shared
4-feature query embedding, and the lowest-DBI policy wins.  The winning
tasks, each a (features, labels) pair pooling its queries' rows, feed
first-order MAML: per-task inner SGD adaptation followed by an outer step on
the summed post-adaptation gradients.  MAML runs every step through
``model.batch_grad`` and ``model.sgd_step``, in place on working values it
allocates once per call: the adapted parameters and the gradient, each a
``ModelParams``, and the outer parameters (a copy of its input), the
task-gradient sum and scratch, each a vector in the same layout.  It
returns the outer parameters and writes neither its input parameters nor
its tasks.  It checks nothing: a task with non-finite rows gives non-finite
outer parameters, which the caller's ``check_finite`` reports.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .catalog import Query
from .model import ModelParams, batch_grad, sgd_step
from .simulator import QueryContext

__all__ = [
    "PartitioningPolicy",
    "TaskSet",
    "TransferError",
    "halstead_complexity",
    "policy_score",
    "partition_workload",
    "query_embeddings",
    "davies_bouldin",
    "score_all_policies",
    "select_partitioning",
    "maml_outer",
]

DBI_EPSILON = 1e-9


class TransferError(ValueError):
    """Raised when a workload has too few queries to fill its tasks."""


class PartitioningPolicy(Enum):
    # Declaration order doubles as the tie-break order.
    HALSTEAD = "halstead"
    OPERATOR_COUNT = "operator_count"
    ESTIMATED_COST = "estimated_cost"
    ESTIMATED_ROWS = "estimated_rows"


@dataclass(frozen=True)
class TaskSet:
    """Disjoint query-id groups produced by one partitioning policy."""

    tasks: tuple[tuple[str, ...], ...]
    policy: PartitioningPolicy
    dbi_score: float | None = None


def halstead_complexity(query: Query) -> float:
    """Token-count complexity: (n1/2) * (N/n2) * log2(n1 + n2), where n1/n2
    are distinct operator/operand counts and N is total operand occurrences."""
    eta1 = len(query.operator_tokens)
    eta2 = len(query.operand_tokens)  # never 0: ``Query`` refuses an empty bag
    total_operands = sum(query.operand_tokens.values())
    return (eta1 / 2.0) * (total_operands / eta2) * math.log2(eta1 + eta2)


def policy_score(ctx: QueryContext, policy: PartitioningPolicy) -> float:
    query = ctx.query
    if policy is PartitioningPolicy.HALSTEAD:
        return halstead_complexity(query)
    if policy is PartitioningPolicy.OPERATOR_COUNT:
        return float(sum(query.operator_tokens.values()))
    if policy is PartitioningPolicy.ESTIMATED_COST:
        return ctx.cost(ctx.expert())
    return ctx.cardinality(ctx.full_mask)  # ESTIMATED_ROWS


def partition_workload(
    workload: list[QueryContext], policy: PartitioningPolicy, k_tasks: int
) -> TaskSet:
    """Sort by policy score (ties by query id) and chunk into k_tasks groups
    of floor(|W|/k) queries each; the remainder extends the last task."""
    if len(workload) < k_tasks:
        raise TransferError(
            f"workload of {len(workload)} queries cannot fill {k_tasks} tasks"
        )
    ranked = sorted(workload, key=lambda c: (policy_score(c, policy), c.query.id))
    size = len(workload) // k_tasks
    tasks = []
    for i in range(k_tasks):
        chunk = ranked[i * size : (i + 1) * size] if i < k_tasks - 1 else ranked[(k_tasks - 1) * size :]
        tasks.append(tuple(c.query.id for c in chunk))
    return TaskSet(tasks=tuple(tasks), policy=policy)


def query_embeddings(workload: list[QueryContext]) -> dict[str, np.ndarray]:
    """Shared 4-feature embedding per query: z-scored (halstead, operator
    count, log1p expert cost, log1p estimated rows).  Constant columns map
    to zero."""
    raw = np.array(
        [
            [
                halstead_complexity(c.query),
                float(sum(c.query.operator_tokens.values())),
                math.log1p(policy_score(c, PartitioningPolicy.ESTIMATED_COST)),
                math.log1p(policy_score(c, PartitioningPolicy.ESTIMATED_ROWS)),
            ]
            for c in workload
        ]
    )
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    std[std == 0] = 1.0
    normalized = (raw - mean) / std
    return {c.query.id: normalized[i] for i, c in enumerate(workload)}


def davies_bouldin(tasks: TaskSet, embeddings: dict[str, np.ndarray]) -> float:
    """Mean over clusters of the worst (sigma_i + sigma_j) / dist(c_i, c_j)
    ratio, with the centroid distance floored at DBI_EPSILON."""
    centroids = []
    scatters = []
    for task in tasks.tasks:
        points = np.stack([embeddings[qid] for qid in task])
        center = points.mean(axis=0)
        centroids.append(center)
        scatters.append(float(np.linalg.norm(points - center, axis=1).mean()))
    k = len(tasks.tasks)
    ratios = []
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i == j:
                continue
            dist = max(DBI_EPSILON, float(np.linalg.norm(centroids[i] - centroids[j])))
            worst = max(worst, (scatters[i] + scatters[j]) / dist)
        ratios.append(worst)
    return float(np.mean(ratios))


def score_all_policies(workload: list[QueryContext], k_tasks: int) -> list[TaskSet]:
    """Partition under every policy and fill in DBI scores, in enum order.
    The partitions come first, so a ``k_tasks`` above the workload size is
    refused by the HALSTEAD partition before any expert DP runs."""
    partitions = [partition_workload(workload, policy, k_tasks) for policy in PartitioningPolicy]
    embeddings = query_embeddings(workload)
    return [dataclasses.replace(t, dbi_score=davies_bouldin(t, embeddings)) for t in partitions]


def select_partitioning(workload: list[QueryContext], k_tasks: int) -> TaskSet:
    """The minimum-DBI partition across all four policies; ties keep the
    earliest policy in enum order."""
    return min(score_all_policies(workload, k_tasks), key=lambda t: t.dbi_score)


def maml_outer(
    params: ModelParams,
    tasks: list[tuple[np.ndarray, np.ndarray]],
    inner_lr: float,
    outer_lr: float,
    n_inner: int,
    n_outer: int,
    batch_size: int = 64,
    rng_seed: int = 0,
) -> ModelParams:
    """First-order MAML: each outer iteration adapts to every task on a
    support batch, evaluates the loss gradient at the adapted parameters on a
    query batch, and applies one outer step on the gradients summed left to
    right from 0 (the adaptation Jacobian is treated as identity).  Support
    and query batches are row selections drawn from each task's (features,
    labels) pair without replacement.  The input params are untouched."""
    rng = np.random.default_rng(rng_seed)
    outer = params.vector.copy()
    adapted, grad = (ModelParams(params.layer_sizes, np.empty_like(outer)) for _ in range(2))
    summed = np.empty_like(outer)
    scratch = np.empty_like(outer)

    def sample(task: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        features, labels = task
        idx = rng.choice(len(labels), size=min(batch_size, len(labels)), replace=False)
        return features[idx], labels[idx]

    for _ in range(n_outer):
        summed.fill(0.0)
        for task in tasks:
            support = sample(task)
            query_batch = sample(task)
            np.copyto(adapted.vector, outer)
            for _ in range(n_inner):
                batch_grad(adapted, *support, grad)
                sgd_step(adapted.vector, grad.vector, inner_lr, scratch)
            batch_grad(adapted, *query_batch, grad)
            summed += grad.vector
        sgd_step(outer, summed, outer_lr, scratch)
    return ModelParams(params.layer_sizes, outer)
