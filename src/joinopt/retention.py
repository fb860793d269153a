"""Knowledge retention: experience extraction and selective replay.

Every join-rooted subplan of an executed plan becomes one experience, in
pre-order; its features come from the simulator's single walk over the plan
(``simulator.plan_infos``).  The replay buffer stores them as rows of column
arrays and keeps no model output.  At sampling time each buffered experience
gets a priority weight combining a recency score

    tau = 1 - (tau_current - tau_e) / T

with a min-max-normalized TD-error magnitude

    delta = r + gamma * V(s_next) - V(s)
    delta_hat = (|delta|^a - min|delta|^a) / (max|delta|^a - min|delta|^a)

under one of four weighting policies, each formula evaluated once over all
buffered rows; weights are normalized to a probability distribution and the
replay budget is drawn from the resulting multinomial, with replacement, as
one training batch.  Priorities are recomputed from the current model at
every call and never stored.

TD errors live in the model's label space: values are negated network
outputs (the network predicts log1p latency, so higher output means worse)
and rewards pass through a signed log1p.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .features import RECENCY_SLOT, fragment_rows
from .model import ModelParams, TrainBatch, latency_to_label, predict_batch
from .plans import Join, PlanNode
from .simulator import QueryContext, plan_infos

__all__ = [
    "Experience",
    "ReplayBuffer",
    "WeightingPolicy",
    "ReplayStats",
    "RetentionError",
    "extract_experiences",
    "recency_weight",
    "td_error",
    "normalize_td",
    "experience_weight",
    "sample_replay",
    "dump_buffer",
]


class RetentionError(ValueError):
    """Raised for invalid extraction inputs or empty-buffer sampling."""


@dataclass(frozen=True)
class Experience:
    """A featurized join-rooted subplan with its successor and rewards.

    ``next_state_features`` is None for the plan root (terminal).
    ``reward_to_go`` is the negated full-plan latency and labels regression;
    ``transition_reward`` is 0 except at the root, where the delayed reward
    (again negated latency) arrives.
    """

    query_id: str
    state_features: np.ndarray
    next_state_features: np.ndarray | None
    reward_to_go: float
    transition_reward: float
    stored_at: int

    def __post_init__(self):
        if self.stored_at < 0:
            raise RetentionError("stored_at must be >= 0")

    @property
    def is_terminal(self) -> bool:
        return self.next_state_features is None

    @property
    def latency_ms(self) -> float:
        return -self.reward_to_go


@dataclass(frozen=True)
class WeightingPolicy:
    """One of recency, td_low, td_high, or hybrid(beta_mix)."""

    kind: str
    beta_mix: float = 0.5

    KINDS = ("recency", "td_low", "td_high", "hybrid")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise RetentionError(
                f"unknown weighting policy {self.kind!r}; expected one of {self.KINDS}"
            )
        if not (0.0 <= self.beta_mix <= 1.0):
            raise RetentionError("beta_mix must lie in [0, 1]")


class ReplayBuffer:
    """Ring buffer of experiences, evicting strictly oldest-first.  Each
    experience is one row of the column arrays, which the first push
    allocates; ``next_state`` is zero where ``terminal``, and the signed-log1p
    ``reward`` and the ``label`` (log1p latency) are computed at push time."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise RetentionError("capacity must be >= 1")
        self.capacity = capacity
        self._size = 0
        self._next = 0  # the row the next push writes
        self.tau_current = 0

    def __len__(self) -> int:
        return self._size

    def push(self, experience: Experience) -> None:
        if self._size == 0:
            # np.zeros pages are committed on first write, so rows that are
            # never filled cost no memory.
            n, dim = self.capacity, len(experience.state_features)
            self.state = np.zeros((n, dim))
            self.next_state = np.zeros((n, dim))
            self.terminal = np.zeros(n, dtype=bool)
            self.stored_at = np.zeros(n, dtype=np.int64)
            self.reward_to_go = np.zeros(n)
            self.transition_reward = np.zeros(n)
            self.reward = np.zeros(n)
            self.label = np.zeros(n)
            self.query_id = np.empty(n, dtype=object)
        row = self._next
        self.state[row] = experience.state_features
        self.terminal[row] = experience.is_terminal
        self.next_state[row] = 0.0 if experience.is_terminal else experience.next_state_features
        self.stored_at[row] = experience.stored_at
        self.reward_to_go[row] = experience.reward_to_go
        self.transition_reward[row] = experience.transition_reward
        # math.log1p, one value at a time: np.log1p differs in the last bit
        # on some inputs.
        self.reward[row] = _signed_log1p(experience.transition_reward)
        self.label[row] = latency_to_label(experience.latency_ms)
        self.query_id[row] = experience.query_id
        self._next = (row + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        self.tau_current = max(self.tau_current, experience.stored_at)

    def extend(self, experiences) -> None:
        for exp in experiences:
            self.push(exp)

    def order(self) -> np.ndarray:
        """Row indices of the buffered experiences, oldest first."""
        if self._size < self.capacity:
            return np.arange(self._size)
        return np.roll(np.arange(self.capacity), -self._next)

    def batch(self, positions, recency) -> TrainBatch:
        """The experiences at ``positions`` of ``order()`` as a training
        batch: state features with the recency slot set to ``recency``,
        labelled with log1p latency."""
        rows = self.order()[positions]
        features = self.state[rows]
        features[:, RECENCY_SLOT] = recency
        return TrainBatch(features, self.label[rows])


def extract_experiences(
    plan: PlanNode,
    ctx: QueryContext,
    latency_ms: float,
    iteration: int,
) -> list[Experience]:
    """One experience per join node of an executed terminal plan, in
    pre-order (root first, then the left subtree, then the right).

    The successor of each subplan is its smallest enclosing join (None for
    the root).  All experiences of the plan share reward_to_go = -latency;
    only the root carries a nonzero transition reward.
    """
    if latency_ms <= 0:
        raise RetentionError("latency must be > 0")
    infos = plan_infos(plan, ctx)
    if infos[-1].mask != ctx.full_mask:
        raise RetentionError(
            f"plan does not cover query {ctx.query.id!r}; cannot extract experiences"
        )
    joins = [info for info in infos if isinstance(info.node, Join)]
    rows = dict(zip((id(info.node) for info in joins), fragment_rows(joins, ctx)))
    experiences = []

    def walk(node, enclosing: np.ndarray | None):
        if not isinstance(node, Join):
            return
        feats = rows[id(node)]
        terminal = enclosing is None
        experiences.append(
            Experience(
                query_id=ctx.query.id,
                state_features=feats,
                next_state_features=None if terminal else enclosing,
                reward_to_go=-latency_ms,
                transition_reward=-latency_ms if terminal else 0.0,
                stored_at=iteration,
            )
        )
        walk(node.left, feats)
        walk(node.right, feats)

    walk(infos[-1].node, None)
    return experiences


def recency_weight(tau_e, tau_current, span):
    """1 - age/span, the linear recency score in [0, 1]; ``tau_e`` may be an
    array of storage iterations."""
    if span <= 0:
        raise RetentionError("normalization span must be > 0")
    age = np.subtract(tau_current, tau_e)
    if np.any(age < 0) or np.any(age > span):
        raise RetentionError(f"ages {np.min(age)}..{np.max(age)} outside [0, {span}]")
    return 1.0 - age / span


def _signed_log1p(value: float) -> float:
    return math.copysign(math.log1p(abs(value)), value)


def td_error(buffer: ReplayBuffer, model: ModelParams, gamma: float) -> np.ndarray:
    """One-step TD residual r + gamma*V(s') - V(s) in label space, one per
    buffered experience, oldest first; V is zero at a terminal."""
    if not len(buffer):
        raise RetentionError("the replay buffer is empty")
    rows = buffer.order()
    values = -predict_batch(model, buffer.state[rows])
    next_values = np.zeros(len(rows))
    live = ~buffer.terminal[rows]
    if live.any():
        next_values[live] = -predict_batch(model, buffer.next_state[rows[live]])
    return buffer.reward[rows] + gamma * next_values - values


def normalize_td(deltas, alpha_td: float) -> np.ndarray:
    """Min-max scaling of |delta|^alpha to [0, 1]; all-equal inputs map to 0.5."""
    if alpha_td <= 0:
        raise RetentionError("alpha_td must be > 0")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0:
        raise RetentionError("cannot normalize an empty TD-error list")
    powered = np.abs(deltas) ** alpha_td
    low, high = powered.min(), powered.max()
    if high - low <= 0:
        return np.full(deltas.shape, 0.5)
    return (powered - low) / (high - low)


def experience_weight(norm_td, recency, policy: WeightingPolicy):
    """Priority weight in [0, 1] under a policy, for one experience or
    element-wise over arrays."""
    if policy.kind == "recency":
        return recency
    if policy.kind == "td_high":
        return norm_td
    if policy.kind == "td_low":
        return 1.0 - norm_td
    return policy.beta_mix * norm_td + (1.0 - policy.beta_mix) * recency


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


def _priorities(buffer, model, policy, gamma, alpha_td):
    norm = normalize_td(td_error(buffer, model, gamma), alpha_td)
    taus = buffer.stored_at[buffer.order()].astype(float)
    tau_current = taus.max()
    recency = recency_weight(taus, tau_current, max(1.0, tau_current - taus.min()))
    return experience_weight(norm, recency, policy), norm, recency


def sample_replay(
    buffer: ReplayBuffer,
    model: ModelParams,
    policy: WeightingPolicy,
    k_replay: int,
    gamma: float,
    alpha_td: float,
    rng_seed: int,
) -> tuple[TrainBatch, ReplayStats]:
    """Draw ``k_replay`` experiences with replacement from the priority
    multinomial.  Returns them as a training batch in draw order, the
    recency feature slot of each row filled with the experience's recency
    score, together with the call's statistics.  Falls back to uniform
    sampling when every weight is zero."""
    if k_replay < 1:
        raise RetentionError("k_replay must be >= 1")
    weights, norm, recency = _priorities(buffer, model, policy, gamma, alpha_td)
    total = weights.sum()
    if total > 0:
        probabilities = weights / total
    else:
        probabilities = np.full(len(buffer), 1.0 / len(buffer))
    rng = np.random.default_rng(rng_seed)
    indices = rng.choice(len(buffer), size=k_replay, replace=True, p=probabilities)
    stats = ReplayStats(probabilities, norm, recency, indices)
    return buffer.batch(indices, recency[indices]), stats


def dump_buffer(buffer: ReplayBuffer, path) -> None:
    """Debugging dump of buffer contents as JSON, oldest first; not a
    stability contract."""
    rows = [
        {
            "query_id": buffer.query_id[row],
            "stored_at": int(buffer.stored_at[row]),
            "latency_ms": -float(buffer.reward_to_go[row]),
            "transition_reward": float(buffer.transition_reward[row]),
            "terminal": bool(buffer.terminal[row]),
            "state_features": buffer.state[row].tolist(),
        }
        for row in buffer.order()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tau_current": buffer.tau_current, "experiences": rows}, fh, indent=2)
        fh.write("\n")
