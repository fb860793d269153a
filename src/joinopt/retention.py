"""Knowledge retention: experience extraction and selective replay.

Every join-rooted subplan of an executed plan becomes one experience, in
pre-order; its features come from the simulator's single walk over the plan
(``simulator.plan_infos``), and the buffer keeps no model output.  At
sampling time each buffered experience gets a priority weight combining a
recency score

    tau = 1 - (tau_current - tau_e) / T

with a min-max-normalized TD-error magnitude

    delta = r + gamma * V(s_next) - V(s)
    delta_hat = (|delta|^a - min|delta|^a) / (max|delta|^a - min|delta|^a)

under one of four weighting policies; weights are normalized to a
probability distribution and the replay budget is drawn from the resulting
multinomial, with replacement.  Priorities are recomputed from the current
model at every call and never stored.

TD errors live in the model's label space: values are negated network
outputs (the network predicts log1p latency, so higher output means worse)
and rewards pass through a signed log1p.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, Query
from .features import fragment_features
from .model import ModelParams, predict, predict_batch
from .plans import Join, PlanNode
from .simulator import CostModelConfig, QueryContext, plan_infos

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

    @classmethod
    def recency_only(cls) -> "WeightingPolicy":
        return cls("recency")

    @classmethod
    def td_error_low(cls) -> "WeightingPolicy":
        return cls("td_low")

    @classmethod
    def td_error_high(cls) -> "WeightingPolicy":
        return cls("td_high")

    @classmethod
    def hybrid(cls, beta_mix: float = 0.5) -> "WeightingPolicy":
        return cls("hybrid", beta_mix)


class ReplayBuffer:
    """Ring buffer of experiences, evicting strictly oldest-first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise RetentionError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Experience] = []
        self._start = 0
        self.tau_current = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, experience: Experience) -> None:
        self.tau_current = max(self.tau_current, experience.stored_at)
        if len(self._items) < self.capacity:
            self._items.append(experience)
        else:
            self._items[self._start] = experience
            self._start = (self._start + 1) % self.capacity

    def extend(self, experiences) -> None:
        for exp in experiences:
            self.push(exp)

    def snapshot(self) -> list[Experience]:
        """Buffered experiences, oldest first."""
        return self._items[self._start :] + self._items[: self._start]


def extract_experiences(
    plan: PlanNode,
    query: Query,
    catalog: Catalog,
    cfg: CostModelConfig,
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
    ctx = QueryContext(query, catalog, cfg)
    infos = plan_infos(plan, ctx)
    if infos[-1].mask != ctx.full_mask:
        raise RetentionError(
            f"plan does not cover query {query.id!r}; cannot extract experiences"
        )
    by_node = {id(info.node): info for info in infos}
    experiences = []

    def walk(node, enclosing: np.ndarray | None):
        if not isinstance(node, Join):
            return
        feats = fragment_features(by_node[id(node)], ctx)
        terminal = enclosing is None
        experiences.append(
            Experience(
                query_id=query.id,
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


def recency_weight(tau_e: int, tau_current: int, span: float) -> float:
    """1 - age/span, the linear recency score in [0, 1]."""
    if span <= 0:
        raise RetentionError("normalization span must be > 0")
    age = tau_current - tau_e
    if age < 0 or age > span:
        raise RetentionError(f"age {age} outside [0, {span}]")
    return 1.0 - age / span


def _signed_log1p(value: float) -> float:
    return math.copysign(math.log1p(abs(value)), value)


def _value_of(model: ModelParams, features: np.ndarray | None) -> float:
    if features is None:
        return 0.0
    return -predict(model, features)


def td_error(exp: Experience, model: ModelParams, gamma: float) -> float:
    """One-step TD residual r + gamma*V(s') - V(s) in label space."""
    reward = _signed_log1p(exp.transition_reward)
    return (
        reward
        + gamma * _value_of(model, exp.next_state_features)
        - _value_of(model, exp.state_features)
    )


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


def experience_weight(norm_td: float, recency: float, policy: WeightingPolicy) -> float:
    """Priority weight in [0, 1] for one experience under a policy."""
    if policy.kind == "recency":
        return recency
    if policy.kind == "td_high":
        return norm_td
    if policy.kind == "td_low":
        return 1.0 - norm_td
    return policy.beta_mix * norm_td + (1.0 - policy.beta_mix) * recency


@dataclass(frozen=True)
class ReplayStats:
    """Diagnostics for one sampling call."""

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


def _priorities(items, model, policy, gamma, alpha_td):
    state = np.stack([e.state_features for e in items])
    values = -predict_batch(model, state)
    next_values = np.zeros(len(items))
    non_terminal = [i for i, e in enumerate(items) if not e.is_terminal]
    if non_terminal:
        nxt = np.stack([items[i].next_state_features for i in non_terminal])
        next_values[non_terminal] = -predict_batch(model, nxt)
    rewards = np.array([_signed_log1p(e.transition_reward) for e in items])
    deltas = rewards + gamma * next_values - values
    norm = normalize_td(deltas, alpha_td)

    taus = np.array([e.stored_at for e in items], dtype=float)
    tau_current = max(e.stored_at for e in items)
    span = max(1.0, tau_current - taus.min())
    recency = 1.0 - (tau_current - taus) / span

    weights = np.array(
        [experience_weight(d, t, policy) for d, t in zip(norm, recency)]
    )
    return weights, norm, recency


def sample_replay(
    buffer: ReplayBuffer,
    model: ModelParams,
    policy: WeightingPolicy,
    k_replay: int,
    gamma: float,
    alpha_td: float,
    rng_seed: int,
    with_stats: bool = False,
):
    """Draw ``k_replay`` experiences with replacement from the priority
    multinomial.  The recency feature slot of each returned copy is filled
    with the experience's recency score.  Falls back to uniform sampling when
    every weight is zero."""
    items = buffer.snapshot()
    if not items:
        raise RetentionError("cannot sample from an empty replay buffer")
    if k_replay < 1:
        raise RetentionError("k_replay must be >= 1")
    weights, norm, recency = _priorities(items, model, policy, gamma, alpha_td)
    total = weights.sum()
    if total > 0:
        probabilities = weights / total
    else:
        probabilities = np.full(len(items), 1.0 / len(items))
    rng = np.random.default_rng(rng_seed)
    indices = rng.choice(len(items), size=k_replay, replace=True, p=probabilities)
    sampled = []
    for i in indices:
        exp = items[i]
        feats = exp.state_features.copy()
        feats[-1] = recency[i]
        sampled.append(dataclasses.replace(exp, state_features=feats))
    if with_stats:
        return sampled, ReplayStats(probabilities, norm, recency, indices)
    return sampled


def dump_buffer(buffer: ReplayBuffer, path) -> None:
    """Debugging dump of buffer contents as JSON; not a stability contract."""
    rows = []
    for exp in buffer.snapshot():
        rows.append(
            {
                "query_id": exp.query_id,
                "stored_at": exp.stored_at,
                "latency_ms": exp.latency_ms,
                "transition_reward": exp.transition_reward,
                "terminal": exp.is_terminal,
                "state_features": [float(v) for v in exp.state_features],
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tau_current": buffer.tau_current, "experiences": rows}, fh, indent=2)
        fh.write("\n")
