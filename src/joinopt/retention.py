"""Knowledge retention: experience extraction and selective replay.

Every join-rooted subplan of an executed plan is one experience.  The plan's
experiences form one ``PlanBlock``: its join rows in pre-order, their
features from the simulator's single walk over the plan
(``simulator.plan_infos``), and for each row the block index of its smallest
enclosing join, the experience's successor state (-1 at the root, which is
terminal).  The replay buffer writes blocks as rows of column arrays, any
number of them in one set of column writes.  It keeps no model output
that is read again: the TD pass writes its layers into buffers the ring
keeps, and every pass overwrites them.  It is a ring with room for one
plan beyond its capacity, so the evicted rows of the oldest plan, which
the live ones may still need as successor states, stay in place until the
whole plan is gone.  At sampling time each buffered experience gets a
priority weight combining a recency score

    tau = 1 - (tau_current - tau_e) / T

with a min-max-normalized TD-error magnitude

    delta = r + gamma * V(s_next) - V(s)
    delta_hat = (|delta|^a - min|delta|^a) / (max|delta|^a - min|delta|^a)

under one of four weighting policies, each formula evaluated once over all
buffered rows.  ``RetentionConfig``, the run config's ``retention`` section,
holds the policy and every other replay setting, and the sampling functions
read it whole.  Weights are normalized to a probability distribution and the
replay budget is drawn from the resulting multinomial, with replacement, as
one training batch: a (features, labels) pair of new float64 arrays, which
nothing re-checks.  Priorities are recomputed from the current model at
every call and never stored.  One forward pass scores every row, and
V(s_next) is the value of the row's enclosing join in that same pass.

TD errors live in the model's label space: values are negated network
outputs (the network predicts log1p latency, so higher output means worse)
and the reward, nonzero only at a plan root, is the negated label
-log1p(latency).  ``dump_buffer`` reports that same reward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .features import RECENCY_SLOT, fragment_rows
from .model import ModelParams, latency_to_label, predict_batch
from .plans import Join, PlanNode
from .simulator import QueryContext, plan_infos

__all__ = [
    "PlanBlock",
    "ReplayBuffer",
    "RetentionConfig",
    "ReplayStats",
    "RetentionError",
    "extract_experiences",
    "fresh_batch",
    "recency_weight",
    "td_error",
    "normalize_td",
    "experience_weight",
    "sample_replay",
    "dump_buffer",
]


class RetentionError(ValueError):
    """Raised for invalid retention settings and for sampling an empty
    buffer."""


@dataclass(frozen=True)
class PlanBlock:
    """The experiences of one executed plan, one row each in pre-order.

    ``parent[i]`` is the block index of row i's smallest enclosing join,
    which comes before it; it is -1 at the root, the one terminal row.
    Every row is labelled with the plan's latency.  ``features`` and
    ``parent`` are read-only: the blocks of one plan's executions in a
    training iteration share them (``trainer.execute_plans``)."""

    query_id: str
    iteration: int
    latency_ms: float
    features: np.ndarray  # [n, d]
    parent: np.ndarray  # [n]

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def label(self) -> float:
        return latency_to_label(self.latency_ms)


@dataclass(frozen=True)
class RetentionConfig:
    """The ``retention`` section of a run config: whether the run replays
    its buffer, the weighting policy (recency, td_low, td_high or
    hybrid(beta_mix)), the TD error's exponent ``alpha_td`` and discount
    ``gamma``, the replay budget and the buffer's capacity."""

    enabled: bool = True
    weighting: str = "hybrid"
    beta_mix: float = 0.5
    alpha_td: float = 1.0
    gamma: float = 1.0
    k_replay: int = 256
    capacity: int = 20000

    WEIGHTINGS = ("recency", "td_low", "td_high", "hybrid")

    def __post_init__(self):
        if not self.alpha_td > 0:
            raise RetentionError("alpha_td must be > 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise RetentionError("gamma must lie in [0, 1]")
        if self.k_replay < 1:
            raise RetentionError("k_replay must be >= 1")
        if self.capacity < 1:
            raise RetentionError("capacity must be >= 1")
        if self.weighting not in self.WEIGHTINGS:
            raise RetentionError(
                f"unknown weighting policy {self.weighting!r}; expected one of {self.WEIGHTINGS}"
            )
        if not 0.0 <= self.beta_mix <= 1.0:
            raise RetentionError("beta_mix must lie in [0, 1]")


# The rows by which the TD pass's output buffers grow: a 64-wide layer's
# buffer of 4 096 rows is 2 MB.
_OUTPUT_STEP = 4096


class ReplayBuffer:
    """Ring buffer of experiences, one row each, evicting strictly
    oldest-first.  Rows are numbered in write order, and row number s lives
    at ``s % size`` of the column arrays, which the first ``extend``
    allocates; ``size`` is ``capacity + plan_rows``, where ``plan_rows`` is
    the most rows one block can have.  ``parent`` holds each row's block
    index of its enclosing join (-1 at a plan root) and ``root`` the number
    of its plan's root.

    Blocks list the root first, so eviction can leave the oldest plan partly
    evicted.  Its evicted rows stay in their slots until the whole plan is
    gone: from that plan's root to the newest row are at most
    ``capacity + plan_rows - 1`` rows, fewer than ``size``.  So ``td_error``
    can score the enclosing joins of the live rows in the same pass.
    ``extend`` takes any number of blocks, so a training iteration writes
    all its plans in one call.

    ``activations`` holds that pass's output buffers, one per layer of the
    model, which ``layer_outputs`` makes at the first pass and again only
    when the model's layer widths change or the pass scores more rows than
    they hold; they grow with the ring and never shrink.  A pass writes
    their leading rows, so it allocates no per-layer array."""

    def __init__(self, capacity: int, plan_rows: int):
        self.capacity = capacity
        self.size = capacity + plan_rows
        self.oldest = self.end = 0  # numbers of the oldest row and of the next
        self.activations: list[np.ndarray] = []

    def __len__(self) -> int:
        return self.end - self.oldest

    def extend(self, *blocks: PlanBlock) -> None:
        """Write the blocks' rows, block after block, in one set of column
        writes; the ring ends up row for row as after one call per block.
        Rows that later rows of the same call overwrite are not written, so
        every slot is written at most once; a block longer than the capacity
        leaves only its tail live, and no block is a no-op."""
        if not blocks:
            return
        lengths = np.array([len(block) for block in blocks])
        size, start, end = self.size, self.end, self.end + int(lengths.sum())
        if not self.end:
            # np.zeros pages are committed on first write, so rows that are
            # never filled cost no memory.
            self.state = np.zeros((size, blocks[0].features.shape[1]))
            self.parent = np.zeros(size, dtype=np.int64)
            self.root = np.zeros(size, dtype=np.int64)
            self.stored_at = np.zeros(size, dtype=np.int64)
            self.latency = np.zeros(size)
            self.label = np.zeros(size)
            self.query_id = np.empty(size, dtype=object)
        skip = max(0, end - start - size)  # rows this call overwrites itself
        rows = np.arange(start + skip, end) % size
        roots = start + np.cumsum(lengths) - lengths

        def per_row(values, dtype=None):
            return np.repeat(np.array(values, dtype=dtype), lengths)[skip:]

        self.state[rows] = np.concatenate([block.features for block in blocks])[skip:]
        self.parent[rows] = np.concatenate([block.parent for block in blocks])[skip:]
        self.root[rows] = per_row(roots)
        self.stored_at[rows] = per_row([block.iteration for block in blocks])
        self.latency[rows] = per_row([block.latency_ms for block in blocks])
        self.label[rows] = per_row([block.label for block in blocks])
        self.query_id[rows] = per_row([block.query_id for block in blocks], object)
        self.oldest, self.end = max(0, end - self.capacity), end

    def layer_outputs(self, model: ModelParams, rows: int) -> list[np.ndarray]:
        """``activations``, one buffer of at least ``rows`` rows per layer
        of ``model``, remade if their widths are not the model's or they
        are shorter.  A remade buffer has ``rows`` rounded up to whole
        ``_OUTPUT_STEP`` rows, at most ``size``, so a filling ring remakes
        them a few times, and a small ring's stay under numpy's 4 MB
        huge-page threshold, whose pages commit 2 MB at a time."""
        widths = model.layer_sizes[1:]
        have = self.activations
        if tuple(a.shape[1] for a in have) != widths or len(have[0]) < rows:
            rows = min(self.size, -(-rows // _OUTPUT_STEP) * _OUTPUT_STEP)
            # As for the columns, rows that no pass reaches cost no memory.
            self.activations = [np.zeros((rows, width)) for width in widths]
        return self.activations

    def order(self) -> np.ndarray:
        """Row indices of the buffered experiences, oldest first."""
        return np.arange(self.oldest, self.end) % self.size

    def scored_states(self) -> np.ndarray:
        """The state features of the buffered experiences, oldest first, then
        the oldest plan's evicted rows from its root on: one new matrix."""
        first = self.root[self.oldest % self.size]
        return self.state[np.r_[self.oldest : self.end, first : self.oldest] % self.size]

    def batch(self, positions, recency) -> tuple[np.ndarray, np.ndarray]:
        """The experiences at ``positions`` of ``order()`` as a training
        batch, a (features, labels) pair: state features with the recency
        slot set to ``recency``, labelled with log1p latency."""
        rows = self.order()[positions]
        features = self.state[rows]
        features[:, RECENCY_SLOT] = recency
        return features, self.label[rows]


def extract_experiences(
    plan: PlanNode,
    ctx: QueryContext,
    latency_ms: float,
    iteration: int,
) -> PlanBlock:
    """The block of an executed terminal plan (``QueryContext.cost`` has
    checked that it covers the query): one row per join node, in pre-order (root first,
    then the left subtree, then the right), each pointing at its smallest
    enclosing join.  The block's arrays are made read-only."""
    infos = plan_infos(plan, ctx)
    info_of = {id(info.node): info for info in infos}
    joins, parent, stack = [], [], [(infos[-1].node, -1)]
    while stack:  # pre-order: a join, then its left subtree, then its right
        node, up = stack.pop()
        if isinstance(node, Join):
            joins.append(info_of[id(node)])
            parent.append(up)
            stack += [(node.right, len(joins) - 1), (node.left, len(joins) - 1)]
    features, parent = fragment_rows(joins, ctx), np.array(parent)
    features.flags.writeable = parent.flags.writeable = False
    return PlanBlock(ctx.query.id, iteration, latency_ms, features, parent)


def fresh_batch(
    blocks: list[PlanBlock], k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``k`` rows drawn uniformly, with replacement, from the blocks' rows
    taken block after block, as a (features, labels) training batch of fresh
    experiences: recency slot 1.0, labelled with log1p latency."""
    labels = np.repeat([block.label for block in blocks], list(map(len, blocks)))
    drawn = rng.integers(0, len(labels), size=k)
    features = np.concatenate([block.features for block in blocks])[drawn]
    features[:, RECENCY_SLOT] = 1.0
    return features, labels[drawn]


def recency_weight(tau_e, tau_current, span):
    """1 - age/span, the linear recency score, in [0, 1] for ages in
    [0, span]; ``tau_e`` may be an array of storage iterations."""
    return 1.0 - np.subtract(tau_current, tau_e) / span


def td_error(buffer: ReplayBuffer, model: ModelParams, gamma: float) -> np.ndarray:
    """One-step TD residual r + gamma*V(s') - V(s) in label space, one per
    buffered experience, oldest first; V is zero at a terminal.  One forward
    pass scores ``buffer.scored_states()``, the buffered rows, oldest first,
    then the oldest plan's evicted rows, still in the ring, as one matrix;
    V(s') is the value of the row's enclosing join in it.  The pass writes
    each layer into the buffer's ``layer_outputs``, which hold at least
    the scored rows.  It is never split or re-batched: a row's last bits
    depend on the shape of the matmul that scores it."""
    if not len(buffer):
        raise RetentionError("the replay buffer is empty")
    states = buffer.scored_states()
    values = -predict_batch(model, states, buffer.layer_outputs(model, len(states)))
    del states  # the pass's input, freed before the per-row arrays below are made
    rows = buffer.order()
    parent = buffer.parent[rows]
    live = parent >= 0
    up = buffer.root[rows] + parent  # the enclosing join's number
    # The pass scores rows oldest .. end - 1 and then the oldest plan's
    # evicted rows, its root .. oldest - 1, so row number u is at u - oldest,
    # and an evicted u, below oldest, wraps to len(values) + u - oldest, its
    # place after the live rows.  At a root the index is in range and unused.
    next_values = np.where(live, values[(up - buffer.oldest) % len(values)], 0.0)
    reward = np.where(live, 0.0, -buffer.label[rows])
    return reward + gamma * next_values - values[: len(rows)]


def normalize_td(deltas, alpha_td: float) -> np.ndarray:
    """Min-max scaling of |delta|^alpha to [0, 1]; all-equal inputs map to
    0.5.  The scaling is the same for |delta| / max |delta|, which is taken
    where |delta|^alpha overflows (a large ``alpha_td``)."""
    magnitudes = np.abs(np.asarray(deltas, dtype=float))
    with np.errstate(over="ignore"):
        powered = magnitudes ** alpha_td
    if np.isinf(powered.max()):
        powered = (magnitudes / magnitudes.max()) ** alpha_td
    low, high = powered.min(), powered.max()
    if high - low <= 0:
        return np.full(magnitudes.shape, 0.5)
    return (powered - low) / (high - low)


def experience_weight(norm_td, recency, cfg: RetentionConfig):
    """Priority weight in [0, 1] under the config's weighting policy, for one
    experience or element-wise over arrays."""
    if cfg.weighting == "recency":
        return recency
    if cfg.weighting == "td_high":
        return norm_td
    if cfg.weighting == "td_low":
        return 1.0 - norm_td
    return cfg.beta_mix * norm_td + (1.0 - cfg.beta_mix) * recency


@dataclass(frozen=True)
class ReplayStats:
    """Diagnostics for one sampling call, indexed like ``ReplayBuffer.order()``."""

    probabilities: np.ndarray
    norm_td: np.ndarray
    recency: np.ndarray
    sampled_indices: np.ndarray

    @property
    def mean_sampled_norm_td(self) -> float:
        return float(self.norm_td[self.sampled_indices].mean())

    @property
    def mean_sampled_recency(self) -> float:
        return float(self.recency[self.sampled_indices].mean())


def _priorities(buffer, model, cfg):
    norm = normalize_td(td_error(buffer, model, cfg.gamma), cfg.alpha_td)
    taus = buffer.stored_at[buffer.order()].astype(float)
    tau_current = taus.max()
    recency = recency_weight(taus, tau_current, max(1.0, tau_current - taus.min()))
    return experience_weight(norm, recency, cfg), norm, recency


def sample_replay(
    buffer: ReplayBuffer,
    model: ModelParams,
    cfg: RetentionConfig,
    rng_seed: int,
) -> tuple[tuple[np.ndarray, np.ndarray], ReplayStats]:
    """Draw ``cfg.k_replay`` experiences with replacement from the priority
    multinomial of the config's weighting policy.  Returns them as a
    (features, labels) training batch in draw order, the recency feature
    slot of each row filled with the experience's recency score, together
    with the call's statistics.  Falls back to uniform sampling when every
    weight is zero."""
    weights, norm, recency = _priorities(buffer, model, cfg)
    total = weights.sum()
    if total > 0:
        probabilities = weights / total
    else:
        probabilities = np.full(len(buffer), 1.0 / len(buffer))
    rng = np.random.default_rng(rng_seed)
    indices = rng.choice(len(buffer), size=cfg.k_replay, replace=True, p=probabilities)
    stats = ReplayStats(probabilities, norm, recency, indices)
    return buffer.batch(indices, recency[indices]), stats


def dump_buffer(buffer: ReplayBuffer, path) -> None:
    """Debugging dump of buffer contents as JSON, oldest first; not a
    stability contract.  ``transition_reward`` is the reward ``td_error``
    adds: -log1p(latency) at a plan root and 0 elsewhere."""
    order = buffer.order()
    rows = [
        {
            "query_id": buffer.query_id[row],
            "stored_at": int(buffer.stored_at[row]),
            "latency_ms": float(buffer.latency[row]),
            "transition_reward": -float(buffer.label[row]) if buffer.parent[row] < 0 else 0.0,
            "terminal": bool(buffer.parent[row] < 0),
            "state_features": buffer.state[row].tolist(),
        }
        for row in order
    ]
    tau_current = int(buffer.stored_at[order].max()) if len(buffer) else 0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tau_current": tau_current, "experiences": rows}, fh, indent=2)
        fh.write("\n")
