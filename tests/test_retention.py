import math

import numpy as np
import pytest

from joinopt.features import feature_dim
from joinopt.model import ModelParams, init_params
from joinopt.plans import Join, JoinOp, Scan
from joinopt.retention import (
    Experience,
    ReplayBuffer,
    RetentionError,
    WeightingPolicy,
    experience_weight,
    extract_experiences,
    normalize_td,
    recency_weight,
    sample_replay,
    td_error,
)
from joinopt.simulator import QueryContext

from conftest import make_catalog, make_query


def identity_model():
    """Single linear layer: predict([x]) = x."""
    return ModelParams((1, 1), (np.array([[1.0]]),), (np.array([0.0]),))


def make_experience(
    state=0.0,
    next_state=None,
    reward_to_go=-1.0,
    transition_reward=0.0,
    stored_at=0,
):
    return Experience(
        query_id="q",
        state_features=np.array([float(state)]),
        next_state_features=None if next_state is None else np.array([float(next_state)]),
        reward_to_go=reward_to_go,
        transition_reward=transition_reward,
        stored_at=stored_at,
    )


# --- extraction ---------------------------------------------------------------

@pytest.fixture
def star4():
    catalog = make_catalog(
        [("f", 1000, 32, 1.0), ("d1", 100, 16, 1.0), ("d2", 50, 16, 1.0), ("d3", 20, 16, 1.0)],
        {("d1", "f"): 0.01, ("d2", "f"): 0.02, ("d3", "f"): 0.05},
    )
    query = make_query(
        "star4", ["f", "d1", "d2", "d3"], [("f", "d1"), ("f", "d2"), ("f", "d3")]
    )
    return catalog, query


def test_extract_single_join(pair_catalog, pair_query, default_cost):
    plan = Join(Scan("r"), Scan("s"), JoinOp.HASH)
    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    exps = extract_experiences(plan, ctx, 12.5, 3)
    assert len(exps) == 1
    (exp,) = exps
    assert exp.is_terminal
    assert exp.reward_to_go == -12.5
    assert exp.transition_reward == -12.5
    assert exp.stored_at == 3
    assert exp.state_features.shape == (feature_dim(pair_catalog),)


def test_extract_left_deep_chain(star4, default_cost):
    catalog, query = star4
    plan = Join(
        Join(Join(Scan("f"), Scan("d1"), JoinOp.HASH), Scan("d2"), JoinOp.MERGE),
        Scan("d3"),
        JoinOp.HASH,
    )
    exps = extract_experiences(plan, QueryContext(query, catalog, default_cost), 100.0, 0)
    assert len(exps) == 3  # |relations| - 1
    by_terminal = [e for e in exps if e.is_terminal]
    assert len(by_terminal) == 1
    # Chained successor links: each non-root's next state is its parent.
    root = by_terminal[0]
    non_roots = [e for e in exps if not e.is_terminal]
    # The middle join's successor is the root; the innermost's successor is
    # the middle join.  Match by feature identity.
    matched = 0
    for e in non_roots:
        for other in exps:
            if e.next_state_features is not None and np.array_equal(
                e.next_state_features, other.state_features
            ):
                matched += 1
                break
    assert matched == len(non_roots)
    assert all(e.transition_reward == 0.0 for e in non_roots)
    assert all(e.reward_to_go == -100.0 for e in exps)


def test_extract_bushy_plan(star4, default_cost):
    """((f x d1) x (d2 x d3)) has 3 joins; both inner joins point at the root.

    d2-d3 has no direct edge, but extraction works on any executed tree shape
    the caller provides; here we use a connected bushy shape instead:
    (f x d1) joined with (f-side d2 x d3 is illegal), so build
    ((f x d1) x d2) x d3 bushy variant: ((f x d1) x (d2? ...)).
    Use the legal bushy shape ((f x d1) x d2) x d3 is left-deep; for a true
    bushy tree use ((f x d2) x (d1? ...)) -- star schemas admit no bushy
    cross-product-free shapes, so check the join-count contract on a chain.
    """
    catalog = make_catalog(
        [("a", 10, 8, 1.0), ("b", 10, 8, 1.0), ("c", 10, 8, 1.0), ("d", 10, 8, 1.0)],
        {("a", "b"): 0.1, ("b", "c"): 0.1, ("c", "d"): 0.1},
    )
    query = make_query("c4", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    left = Join(Scan("a"), Scan("b"), JoinOp.HASH)
    right = Join(Scan("c"), Scan("d"), JoinOp.MERGE)
    plan = Join(left, right, JoinOp.NESTED_LOOP)
    exps = extract_experiences(plan, QueryContext(query, catalog, default_cost), 50.0, 1)
    assert len(exps) == 3
    root = next(e for e in exps if e.is_terminal)
    inner = [e for e in exps if not e.is_terminal]
    assert len(inner) == 2
    for e in inner:
        assert np.array_equal(e.next_state_features, root.state_features)
    # Pre-order: the root, then the left subtree's join, then the right's.
    assert exps[0] is root
    hash_slot, merge_slot = len(catalog.tables), len(catalog.tables) + 1
    assert exps[1].state_features[hash_slot] == 1.0
    assert exps[2].state_features[merge_slot] == 1.0


def test_extract_rejects_partial_plan(star4, default_cost):
    catalog, query = star4
    partial = Join(Scan("f"), Scan("d1"), JoinOp.HASH)
    with pytest.raises(RetentionError, match="cover"):
        extract_experiences(partial, QueryContext(query, catalog, default_cost), 10.0, 0)


def test_extract_count_random_plans(rng, default_cost):
    from joinopt.simulator import QueryContext
    from joinopt.trainer import random_rollout
    from conftest import random_tree_catalog_and_query

    for _ in range(10):
        n = int(rng.integers(2, 7))
        catalog, query = random_tree_catalog_and_query(rng, n)
        plan = random_rollout(QueryContext(query, catalog, default_cost), rng)
        exps = extract_experiences(plan, QueryContext(query, catalog, default_cost), 5.0, 0)
        assert len(exps) == n - 1


# --- recency ------------------------------------------------------------------

def test_recency_weight_values():
    assert recency_weight(10, 10, 5) == 1.0
    assert recency_weight(5, 10, 5) == 0.0
    assert recency_weight(5, 10, 10) == 0.5


def test_recency_weight_monotone_in_age():
    weights = [recency_weight(10 - age, 10, 10) for age in range(11)]
    assert all(a > b for a, b in zip(weights, weights[1:]))
    assert all(0.0 <= w <= 1.0 for w in weights)
    # The array form gives the scalar results element-wise.
    assert recency_weight(10 - np.arange(11), 10, 10).tolist() == weights


def test_recency_weight_rejects_bad_age():
    with pytest.raises(RetentionError):
        recency_weight(20, 10, 5)
    with pytest.raises(RetentionError):
        recency_weight(0, 10, 5)
    with pytest.raises(RetentionError):
        recency_weight(np.array([8.0, 4.0]), 10, 5)  # one age out of range


# --- TD error -----------------------------------------------------------------

def single_td_error(exp, model, gamma):
    buffer = ReplayBuffer(1)
    buffer.push(exp)
    return td_error(buffer, model, gamma)


def test_td_error_arithmetic():
    # V(s_t) = -10, V(s_{t+1}) = -4, r = 0, gamma = 1 -> delta = 6
    model = identity_model()
    exp = make_experience(state=10.0, next_state=4.0, transition_reward=0.0)
    assert single_td_error(exp, model, gamma=1.0) == pytest.approx([6.0])


def test_td_error_terminal():
    # r~ = -8 (transition reward -(e^8 - 1)), V(terminal) = 0, V(s_t) = -10
    model = identity_model()
    exp = make_experience(
        state=10.0, next_state=None, transition_reward=-math.expm1(8.0)
    )
    assert single_td_error(exp, model, gamma=1.0) == pytest.approx([2.0])


def test_td_error_gamma_zero():
    model = identity_model()
    exp = make_experience(state=7.0, next_state=3.0, transition_reward=0.0)
    assert single_td_error(exp, model, gamma=0.0) == pytest.approx([7.0])  # -V(s_t) = 7


# --- normalization -------------------------------------------------------------

def test_normalize_td_basic():
    assert normalize_td([1.0, 4.0], 1.0) == pytest.approx([0.0, 1.0])


def test_normalize_td_middle():
    assert normalize_td([1.0, 2.0, 4.0], 1.0) == pytest.approx([0.0, 1.0 / 3.0, 1.0])


def test_normalize_td_degenerate():
    assert normalize_td([3.0, 3.0, 3.0], 1.0) == pytest.approx([0.5, 0.5, 0.5])


def test_normalize_td_uses_magnitude_and_preserves_order(rng):
    deltas = rng.normal(size=30) * 5
    for alpha in (0.5, 1.0, 2.0):
        out = normalize_td(deltas, alpha)
        assert out.min() >= 0.0 and out.max() <= 1.0
        order = np.argsort(np.abs(deltas), kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-12)


# --- weighting policies ---------------------------------------------------------

def test_experience_weight_hybrid():
    policy = WeightingPolicy("hybrid", 0.5)
    assert experience_weight(0.8, 0.4, policy) == pytest.approx(0.6)


def test_hybrid_zero_equals_recency(rng):
    hybrid0 = WeightingPolicy("hybrid", 0.0)
    recency = WeightingPolicy("recency")
    for _ in range(20):
        d, t = rng.uniform(), rng.uniform()
        assert experience_weight(d, t, hybrid0) == experience_weight(d, t, recency)


def test_td_low_inverts():
    assert experience_weight(0.0, 0.3, WeightingPolicy("td_low")) == 1.0
    assert experience_weight(1.0, 0.3, WeightingPolicy("td_low")) == 0.0


def test_weight_range(rng):
    policies = [
        WeightingPolicy("recency"),
        WeightingPolicy("td_low"),
        WeightingPolicy("td_high"),
        WeightingPolicy("hybrid", 0.3),
    ]
    for _ in range(50):
        d, t = rng.uniform(), rng.uniform()
        for policy in policies:
            assert 0.0 <= experience_weight(d, t, policy) <= 1.0
    # The array form gives the scalar results element-wise, bit for bit.
    d, t = rng.uniform(size=50), rng.uniform(size=50)
    for policy in policies:
        scalar = [experience_weight(x, y, policy) for x, y in zip(d, t)]
        assert experience_weight(d, t, policy).tolist() == scalar


def test_hybrid_extremes_match_pure_orderings(rng):
    """Hybrid(1) orders like TDErrorHigh; Hybrid(0) like RecencyOnly."""
    d = rng.uniform(size=40)
    t = rng.uniform(size=40)
    h1 = [experience_weight(x, y, WeightingPolicy("hybrid", 1.0)) for x, y in zip(d, t)]
    th = [experience_weight(x, y, WeightingPolicy("td_high")) for x, y in zip(d, t)]
    assert np.array_equal(np.argsort(h1, kind="stable"), np.argsort(th, kind="stable"))
    h0 = [experience_weight(x, y, WeightingPolicy("hybrid", 0.0)) for x, y in zip(d, t)]
    rc = [experience_weight(x, y, WeightingPolicy("recency")) for x, y in zip(d, t)]
    assert np.array_equal(np.argsort(h0, kind="stable"), np.argsort(rc, kind="stable"))


def test_weighting_policy_validation():
    with pytest.raises(RetentionError):
        WeightingPolicy("bogus")
    with pytest.raises(RetentionError):
        WeightingPolicy("hybrid", 1.5)


# --- buffer ---------------------------------------------------------------------

def test_buffer_evicts_oldest_first():
    buffer = ReplayBuffer(capacity=3)
    for i in range(5):
        buffer.push(make_experience(state=float(i), stored_at=i))
    assert len(buffer) == 3
    order = buffer.order()
    assert buffer.state[order, 0].tolist() == [2.0, 3.0, 4.0]
    assert buffer.stored_at[order].tolist() == [2, 3, 4]
    assert buffer.tau_current == 4


def test_ring_wrap_td_error_and_sampling_match_hand_oracles(rng):
    """Capacity + k pushes of mixed terminal and non-terminal experiences:
    the buffer keeps the newest ``capacity`` oldest first, and its TD errors,
    sampling probabilities and batch rows match per-experience hand formulas."""
    capacity, extra, dim = 7, 5, 3
    model = init_params((dim, 4, 1), 11)
    pushed = []
    for i in range(capacity + extra):
        terminal = i % 3 == 0
        latency = float(rng.uniform(1.0, 1e4))
        pushed.append(
            Experience(
                query_id=f"q{i}",
                state_features=rng.normal(size=dim),
                next_state_features=None if terminal else rng.normal(size=dim),
                reward_to_go=-latency,
                transition_reward=-latency if terminal else 0.0,
                stored_at=i // 2,
            )
        )
    buffer = ReplayBuffer(capacity)
    buffer.extend(pushed)
    kept = pushed[extra:]
    order = buffer.order()
    assert len(buffer) == capacity
    assert list(buffer.query_id[order]) == [e.query_id for e in kept]

    def value(x):  # hand forward pass: ReLU hidden layer, linear output
        hidden = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        return -float(hidden @ model.weights[1][:, 0] + model.biases[1][0])

    gamma = 0.9
    want_td = [
        math.copysign(math.log1p(abs(e.transition_reward)), e.transition_reward)
        + gamma * (0.0 if e.is_terminal else value(e.next_state_features))
        - value(e.state_features)
        for e in kept
    ]
    assert td_error(buffer, model, gamma) == pytest.approx(want_td, rel=1e-12)

    powered = np.abs(want_td)
    norm = (powered - powered.min()) / (powered.max() - powered.min())
    taus = np.array([e.stored_at for e in kept], dtype=float)
    span = max(1.0, taus.max() - taus.min())
    recency = 1.0 - (taus.max() - taus) / span
    weights = 0.25 * norm + 0.75 * recency
    batch, stats = sample_replay(
        buffer, model, WeightingPolicy("hybrid", 0.25), 40, gamma, 1.0, 5
    )
    assert stats.probabilities == pytest.approx(weights / weights.sum(), rel=1e-9)
    idx = stats.sampled_indices
    want_features = buffer.state[order[idx]].copy()
    want_features[:, -1] = stats.recency[idx]
    assert np.array_equal(batch.features, want_features)
    assert stats.recency[idx] == pytest.approx(recency[idx], rel=1e-12)
    assert batch.labels.tolist() == [math.log1p(kept[i].latency_ms) for i in idx]


# --- sampling --------------------------------------------------------------------

def test_sample_probabilities_from_weights():
    """Weights [1, 1, 2] -> probabilities [0.25, 0.25, 0.5]."""
    buffer = ReplayBuffer(10)
    # Recency-only policy with ages giving tau = (0.5, 0.5, 1.0) after span
    # normalization: stored_at 5, 5, 10 with current 10 -> span 5 -> tau
    # (0, 0, 1)... instead pick stored_at directly for [1,1,2]/4: ages 5,5,0
    # give tau 0,0,1. Use td-high with constructed deltas instead: simplest
    # is recency with stored_at 5, 5, 10 and span 10 via an older anchor.
    # Keep it direct: verify via ReplayStats probabilities on a crafted case.
    model = identity_model()
    buffer.push(make_experience(state=1.0, stored_at=5))
    buffer.push(make_experience(state=1.0, stored_at=5))
    buffer.push(make_experience(state=1.0, stored_at=10))
    # All deltas equal -> norm 0.5 everywhere; recency: span 5, tau = 0,0,1
    # hybrid(0.5): w = [0.25, 0.25, 0.75]... use beta 1/3 to get [1,1,2]/norm?
    # Cleaner: recency-only gives w = [0, 0, 1] -> p = [0, 0, 1].
    batch, stats = sample_replay(
        buffer, model, WeightingPolicy("recency"), 5, 1.0, 1.0, 0
    )
    assert stats.probabilities == pytest.approx([0.0, 0.0, 1.0])
    assert len(batch) == 5
    assert buffer.stored_at[buffer.order()[stats.sampled_indices]].tolist() == [10] * 5


def test_sample_probability_normalization(rng):
    model = identity_model()
    buffer = ReplayBuffer(100)
    for i in range(40):
        buffer.push(
            make_experience(
                state=float(rng.normal()),
                next_state=float(rng.normal()) if rng.uniform() < 0.7 else None,
                transition_reward=-abs(float(rng.normal())) * 10,
                stored_at=int(rng.integers(0, 20)),
            )
        )
    for policy in (
        WeightingPolicy("recency"),
        WeightingPolicy("td_low"),
        WeightingPolicy("td_high"),
        WeightingPolicy("hybrid", 0.5),
    ):
        _, stats = sample_replay(buffer, model, policy, 10, 1.0, 1.0, 1)
        assert stats.probabilities.min() >= 0.0
        assert abs(stats.probabilities.sum() - 1.0) < 1e-12


def test_sample_multinomial_frequencies():
    """Chi-square oracle: 1e5 draws over p = [0.25, 0.25, 0.5]."""
    from scipy import stats as scistats

    model = identity_model()
    buffer = ReplayBuffer(10)
    # td-high weights proportional to normalized |delta|: craft deltas so the
    # normalized values are (0.25, 0.25, 0.5) x c. With V(s)= -s, terminal
    # r~=0: delta = -V(s) = s. Use s = (1, 1, 2) with min-max over (0,1,2)?
    # min-max rescales; instead use four experiences with |delta| 0,1,1,2 ->
    # normalized 0, .5, .5, 1 -> p = 0, .25, .25, .5.
    for s in (0.0, 1.0, 1.0, 2.0):
        buffer.push(make_experience(state=s, next_state=None, transition_reward=0.0))
    _, stats = sample_replay(
        buffer, model, WeightingPolicy("td_high"), 100_000, 1.0, 1.0, 7
    )
    assert stats.probabilities == pytest.approx([0.0, 0.25, 0.25, 0.5])
    counts = np.bincount(stats.sampled_indices, minlength=4)
    assert counts[0] == 0
    chi = scistats.chisquare(counts[1:], f_exp=np.array([0.25, 0.25, 0.5]) * 100_000)
    assert chi.pvalue > 0.001
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs[1:] - [0.25, 0.25, 0.5]) < 0.01)


def test_sample_single_experience_repeats():
    model = identity_model()
    buffer = ReplayBuffer(10)
    buffer.push(make_experience(state=3.0, reward_to_go=-42.0))
    batch, stats = sample_replay(buffer, model, WeightingPolicy("hybrid"), 5, 1.0, 1.0, 0)
    assert len(batch) == 5
    assert stats.sampled_indices.tolist() == [0] * 5
    assert buffer.reward_to_go[buffer.order()[stats.sampled_indices]].tolist() == [-42.0] * 5
    assert batch.labels.tolist() == [math.log1p(42.0)] * 5


def test_sample_uniform_fallback_when_all_zero():
    model = identity_model()
    buffer = ReplayBuffer(10)
    # Same stored_at and equal deltas: recency tau = 1 for all (span 1), so
    # use td_low with norm .5 -> weight .5, not zero. Zero weights: recency
    # policy with two distinct ages: tau = (1, 0) -> second never sampled;
    # all-zero requires every tau = 0: impossible since newest has tau 1.
    # td-high with all-equal deltas gives 0.5 everywhere, also nonzero.
    # The zero case arises with td_high when norm = 0 for all but one... the
    # true all-zero case: single-age buffer with td_low and all norms 1?
    # norms are 0.5 when equal. Force it: two experiences, deltas 0 and 1,
    # td_low weights (1, 0): index 1 unsampled but sum > 0. All-zero needs
    # crafted norms exactly (1,) ... with one experience norm=0.5 => td_low
    # weight .5. Fallback is still reachable via recency when span anchors
    # differ; directly exercise the branch with weights forced to zero.
    from joinopt import retention as r

    buffer.push(make_experience(state=1.0, stored_at=0))
    buffer.push(make_experience(state=2.0, stored_at=0))
    orig = r._priorities

    def zero_priorities(buffer, model, policy, gamma, alpha_td):
        w, n, t = orig(buffer, model, policy, gamma, alpha_td)
        return np.zeros_like(w), n, t

    r._priorities = zero_priorities
    try:
        _, stats = sample_replay(
            buffer, model, WeightingPolicy("hybrid"), 1000, 1.0, 1.0, 3
        )
    finally:
        r._priorities = orig
    assert stats.probabilities == pytest.approx([0.5, 0.5])
    counts = np.bincount(stats.sampled_indices, minlength=2)
    assert counts.min() > 400


def test_sample_deterministic_per_seed():
    model = identity_model()
    buffer = ReplayBuffer(100)
    for i in range(20):
        buffer.push(make_experience(state=float(i), stored_at=i))
    a, stats_a = sample_replay(buffer, model, WeightingPolicy("hybrid"), 16, 1.0, 1.0, 99)
    b, stats_b = sample_replay(buffer, model, WeightingPolicy("hybrid"), 16, 1.0, 1.0, 99)
    assert np.array_equal(stats_a.sampled_indices, stats_b.sampled_indices)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_sample_fills_recency_slot():
    model = identity_model()
    buffer = ReplayBuffer(10)
    buffer.push(make_experience(state=1.0, stored_at=0))
    buffer.push(make_experience(state=2.0, stored_at=10))
    batch, stats = sample_replay(
        buffer, model, WeightingPolicy("hybrid"), 50, 1.0, 1.0, 0
    )
    stored_at = buffer.stored_at[buffer.order()[stats.sampled_indices]]
    for row, tau in zip(batch.features, stored_at):
        expected = 1.0 if tau == 10 else 0.0
        assert row[-1] == expected
    # the buffered rows are untouched
    assert buffer.state[buffer.order(), -1].tolist() == [1.0, 2.0]


def test_sample_empty_buffer():
    with pytest.raises(RetentionError, match="empty"):
        sample_replay(ReplayBuffer(5), identity_model(), WeightingPolicy("hybrid"), 1, 1.0, 1.0, 0)
