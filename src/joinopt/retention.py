"""Knowledge retention: experience extraction and selective replay.

Every join-rooted subplan of an executed plan is one experience.  The plan's
experiences form one ``PlanBlock``: its join rows in pre-order, their
features from the summaries of the simulator's single walk over the plan
(``QueryContext.summaries``), and for each row the block index of its smallest
enclosing join, the experience's successor state (-1 at the root, which is
terminal).  The replay buffer writes blocks as rows of column arrays, any
number of them in one set of column writes, and keeps each distinct state
row once, in a table its rows index: per row, the id of its state and of
its successor's state.  It keeps no model output.  At sampling time each
buffered experience gets a priority weight combining a recency score

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
every call and never stored.  One forward pass scores each distinct state
once, and V(s) and V(s_next) are read from it by id; ``predict_batch``
scores a row the same in any batch, so these are the bits a pass over
every row's state would give.

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
from .plans import Join
from .simulator import FragmentInfo, QueryContext

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


def _row_keys(matrix: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous matrix, through one view."""
    row = np.dtype((np.void, matrix.shape[1] * matrix.itemsize))
    return matrix.view(row).ravel().tolist()


class ReplayBuffer:
    """Ring buffer of experiences, one row each, evicting strictly
    oldest-first.  Rows are numbered in write order, and row number s lives
    at ``s % capacity`` of the column arrays, which the first ``extend``
    allocates.

    A row's state features are kept once per distinct value: ``table``
    holds the distinct state rows, ``sid`` each slot's id, its row of
    ``table``, ``next_sid`` the id of its enclosing join's state (-1 at a
    plan root), and ``ids`` maps a state row's bytes to its id.  ``extend``
    looks up the rows it writes through one bytes view of the call's rows,
    so a row costs one dict lookup.  A live row's ids, through ``sid`` or
    ``next_sid``, count as used.  When the table holds more rows than the
    ring has slots, ``extend`` compacts it, keeping the used rows in their
    order.

    Blocks list the root first, so eviction can leave the oldest plan partly
    evicted; its live rows still reach their enclosing joins' states through
    ``next_sid``, which keeps those states in the table.  ``extend`` takes
    any number of blocks, so a training iteration writes all its plans in
    one call."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.oldest = self.end = 0  # numbers of the oldest row and of the next
        self.ids: dict[bytes, int] = {}

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
        capacity, start, end = self.capacity, self.end, self.end + int(lengths.sum())
        if not self.end:
            self.table = np.zeros((0, blocks[0].features.shape[1]))
            # np.zeros pages are committed on first write, so rows that are
            # never filled cost no memory.
            self.sid = np.zeros(capacity, dtype=np.int64)
            self.next_sid = np.zeros(capacity, dtype=np.int64)
            self.stored_at = np.zeros(capacity, dtype=np.int64)
            self.latency = np.zeros(capacity)
            self.label = np.zeros(capacity)
            self.query_id = np.empty(capacity, dtype=object)
        skip = max(0, end - start - capacity)  # rows this call overwrites itself
        rows = np.arange(start + skip, end) % capacity

        def per_row(values, dtype=None):
            return np.repeat(np.array(values, dtype=dtype), lengths)[skip:]

        # Every row of the call is looked up: a written row's enclosing join
        # may be one that the call overwrites itself.
        sids = self._state_ids(np.concatenate([block.features for block in blocks]))
        parent = np.concatenate([block.parent for block in blocks])
        up = np.repeat(np.cumsum(lengths) - lengths, lengths) + parent  # in-range at a root
        self.sid[rows] = sids[skip:]
        self.next_sid[rows] = np.where(parent >= 0, sids[up], -1)[skip:]
        self.stored_at[rows] = per_row([block.iteration for block in blocks])
        self.latency[rows] = per_row([block.latency_ms for block in blocks])
        self.label[rows] = per_row([block.label for block in blocks])
        self.query_id[rows] = per_row([block.query_id for block in blocks], object)
        self.oldest, self.end = max(0, end - capacity), end
        if len(self.table) > capacity:
            self._compact()

    def _state_ids(self, features: np.ndarray) -> np.ndarray:
        """The id of each row of ``features``, a C-contiguous matrix, looked
        up by its bytes: a row not yet in ``ids`` gets the next id, and the
        new rows are appended to ``table`` in one copy."""
        ids, count = self.ids, len(self.table)
        sids = np.array([ids.setdefault(key, len(ids)) for key in _row_keys(features)], np.int64)
        if len(ids) > count:
            known, first = np.unique(sids, return_index=True)
            self.table = np.concatenate([self.table, features[first[known >= count]]])
        return sids

    def _compact(self) -> None:
        """Keep only the table's used rows, renumbering the ids in order."""
        live = slice(0, min(self.end, self.capacity))  # every written slot is live
        sid, next_sid = self.sid[live], self.next_sid[live]
        used = np.zeros(len(self.table), dtype=bool)
        used[sid] = True
        used[next_sid[next_sid >= 0]] = True
        renumbered = np.cumsum(used) - 1
        sid[...] = renumbered[sid]
        next_sid[...] = np.where(next_sid >= 0, renumbered[next_sid], -1)
        self.table = self.table[used]
        self.ids = dict(zip(_row_keys(self.table), range(len(self.table))))

    def order(self) -> np.ndarray:
        """Row indices of the buffered experiences, oldest first."""
        return np.arange(self.oldest, self.end) % self.capacity

    def batch(self, positions, recency) -> tuple[np.ndarray, np.ndarray]:
        """The experiences at ``positions`` of ``order()`` as a training
        batch, a (features, labels) pair: state features with the recency
        slot set to ``recency``, labelled with log1p latency."""
        rows = self.order()[positions]
        features = self.table[self.sid[rows]]
        features[:, RECENCY_SLOT] = recency
        return features, self.label[rows]


def extract_experiences(
    infos: list[FragmentInfo], ctx: QueryContext, latency_ms: float, iteration: int
) -> PlanBlock:
    """The block of an executed terminal plan, read from its summaries
    ``infos``, which the caller's ``QueryContext.summaries`` gave after
    checking that the plan covers the query: one row per join node, in
    pre-order (root first, then the left subtree, then the right), each
    pointing at its smallest enclosing join.  The block's arrays are made
    read-only."""
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
    pass scores the buffer's ``table``, each distinct state once, and V(s)
    and V(s') are read from it by ``sid`` and ``next_sid``."""
    if not len(buffer):
        raise RetentionError("the replay buffer is empty")
    values = -predict_batch(model, buffer.table)
    rows = buffer.order()
    up = buffer.next_sid[rows]
    live = up >= 0
    next_values = np.where(live, values[up], 0.0)  # values[-1] at a root: unused
    reward = np.where(live, 0.0, -buffer.label[rows])
    return reward + gamma * next_values - values[buffer.sid[rows]]


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
            "transition_reward": -float(buffer.label[row]) if buffer.next_sid[row] < 0 else 0.0,
            "terminal": bool(buffer.next_sid[row] < 0),
            "state_features": buffer.table[buffer.sid[row]].tolist(),
        }
        for row in order
    ]
    tau_current = int(buffer.stored_at[order].max()) if len(buffer) else 0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tau_current": tau_current, "experiences": rows}, fh, indent=2)
        fh.write("\n")
