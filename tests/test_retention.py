import math
import warnings

import numpy as np
import pytest

from joinopt.features import feature_dim
from joinopt.model import ModelParams, init_params, predict_batch
from joinopt.plans import Join, JoinOp, Scan
from joinopt.retention import (
    PlanBlock,
    ReplayBuffer,
    RetentionConfig,
    RetentionError,
    experience_weight,
    extract_experiences,
    fresh_batch,
    normalize_td,
    recency_weight,
    sample_replay,
    td_error,
)
from joinopt.simulator import QueryContext

from conftest import make_catalog, make_query


def identity_model():
    """Single linear layer: predict([x]) = x."""
    return ModelParams((1, 1), np.array([1.0, 0.0]))


def make_block(*states, parent=(-1,), latency=0.0, iteration=0, query_id="q"):
    """A plan block of one-feature rows.  A single row is a terminal whose
    reward is -log1p(latency); a hand-set next state is the root of a
    two-row block, ``make_block(next_state, state, parent=(-1, 0))``."""
    features = np.array(states, dtype=float)[:, None]
    return PlanBlock(query_id, iteration, latency, features, np.array(parent))


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
    block = extract_experiences(ctx.summaries(plan), ctx, 12.5, 3)
    assert len(block) == 1
    assert block.parent.tolist() == [-1]  # the root is terminal
    assert block.latency_ms == 12.5
    assert block.label == math.log1p(12.5)
    assert block.iteration == 3
    assert block.features.shape == (1, feature_dim(pair_catalog))


def test_extract_left_deep_chain(star4, default_cost):
    catalog, query = star4
    plan = Join(
        Join(Join(Scan("f"), Scan("d1"), JoinOp.HASH), Scan("d2"), JoinOp.MERGE),
        Scan("d3"),
        JoinOp.HASH,
    )
    ctx = QueryContext(query, catalog, default_cost)
    block = extract_experiences(ctx.summaries(plan), ctx, 100.0, 0)
    assert len(block) == 3  # |relations| - 1
    # Chained successor links: the middle join's successor is the root, the
    # innermost's is the middle join.
    assert block.parent.tolist() == [-1, 0, 1]
    depth_slot = len(catalog.tables) + 6
    assert block.features[:, depth_slot].tolist() == [3.0, 2.0, 1.0]
    assert block.latency_ms == 100.0


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
    ctx = QueryContext(query, catalog, default_cost)
    block = extract_experiences(ctx.summaries(plan), ctx, 50.0, 1)
    # Pre-order: the root, then the left subtree's join, then the right's;
    # both inner joins point at the root.
    assert block.parent.tolist() == [-1, 0, 0]
    hash_slot, merge_slot = len(catalog.tables), len(catalog.tables) + 1
    assert block.features[1, hash_slot] == 1.0
    assert block.features[2, merge_slot] == 1.0


def test_extract_count_random_plans(rng, default_cost):
    from joinopt.simulator import QueryContext
    from joinopt.trainer import random_rollout
    from conftest import random_tree_catalog_and_query

    for _ in range(10):
        n = int(rng.integers(2, 7))
        catalog, query = random_tree_catalog_and_query(rng, n)
        ctx = QueryContext(query, catalog, default_cost)
        plan = random_rollout(ctx, rng)
        block = extract_experiences(ctx.summaries(plan), ctx, 5.0, 0)
        assert len(block) == n - 1
        assert block.features.shape[0] == n - 1


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


# --- TD error -----------------------------------------------------------------

def last_td_error(block, model, gamma):
    """TD error of the block's last row."""
    buffer = ReplayBuffer(len(block))
    buffer.extend(block)
    return td_error(buffer, model, gamma)[-1]


def test_td_error_arithmetic():
    # V(s_t) = -10, V(s_{t+1}) = -4, r = 0, gamma = 1 -> delta = 6
    model = identity_model()
    block = make_block(4.0, 10.0, parent=(-1, 0))
    assert last_td_error(block, model, gamma=1.0) == pytest.approx(6.0)


def test_td_error_terminal():
    # r~ = -8 (latency e^8 - 1), V(terminal) = 0, V(s_t) = -10
    model = identity_model()
    block = make_block(10.0, latency=math.expm1(8.0))
    assert last_td_error(block, model, gamma=1.0) == pytest.approx(2.0)


def test_td_error_gamma_zero():
    model = identity_model()
    block = make_block(3.0, 7.0, parent=(-1, 0))
    assert last_td_error(block, model, gamma=0.0) == pytest.approx(7.0)  # -V(s_t) = 7


def test_td_error_makes_one_forward_pass(monkeypatch):
    from joinopt import retention as r

    calls = []

    original = r.predict_batch

    def counting(model, features):
        calls.append(len(features))
        return original(model, features)

    monkeypatch.setattr(r, "predict_batch", counting)
    buffer = ReplayBuffer(3)
    buffer.extend(make_block(1.0, 2.0, 3.0, parent=(-1, 0, 1)))
    buffer.extend(make_block(4.0))  # evicts the first plan's root
    td_error(buffer, identity_model(), 1.0)
    # Four distinct states, each scored once: the three buffered rows' and
    # the evicted root's, the enclosing join of a buffered row.
    assert calls == [4]


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


def test_normalize_td_takes_an_alpha_whose_power_overflows():
    """With ``alpha_td`` 1e300, |delta|^alpha overflows: numpy used to warn
    twice and every priority was NaN.  The scaling of |delta| / max |delta|
    is the same, so the largest errors map to 1 and the rest to 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = normalize_td([0.5, -2.0, 1.0, 2.0], 1e300)
    assert norm.tolist() == [0.0, 1.0, 0.0, 1.0]


# --- weighting policies ---------------------------------------------------------

def test_experience_weight_hybrid():
    policy = RetentionConfig(weighting="hybrid", beta_mix=0.5)
    assert experience_weight(0.8, 0.4, policy) == pytest.approx(0.6)


def test_hybrid_zero_equals_recency(rng):
    hybrid0 = RetentionConfig(weighting="hybrid", beta_mix=0.0)
    recency = RetentionConfig(weighting="recency")
    for _ in range(20):
        d, t = rng.uniform(), rng.uniform()
        assert experience_weight(d, t, hybrid0) == experience_weight(d, t, recency)


def test_td_low_inverts():
    assert experience_weight(0.0, 0.3, RetentionConfig(weighting="td_low")) == 1.0
    assert experience_weight(1.0, 0.3, RetentionConfig(weighting="td_low")) == 0.0


def test_weight_range(rng):
    policies = [
        RetentionConfig(weighting="recency"),
        RetentionConfig(weighting="td_low"),
        RetentionConfig(weighting="td_high"),
        RetentionConfig(weighting="hybrid", beta_mix=0.3),
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
    hybrid1 = RetentionConfig(weighting="hybrid", beta_mix=1.0)
    hybrid0 = RetentionConfig(weighting="hybrid", beta_mix=0.0)
    h1 = [experience_weight(x, y, hybrid1) for x, y in zip(d, t)]
    th = [experience_weight(x, y, RetentionConfig(weighting="td_high")) for x, y in zip(d, t)]
    assert np.array_equal(np.argsort(h1, kind="stable"), np.argsort(th, kind="stable"))
    h0 = [experience_weight(x, y, hybrid0) for x, y in zip(d, t)]
    rc = [experience_weight(x, y, RetentionConfig(weighting="recency")) for x, y in zip(d, t)]
    assert np.array_equal(np.argsort(h0, kind="stable"), np.argsort(rc, kind="stable"))


def test_weighting_policy_validation():
    with pytest.raises(RetentionError):
        RetentionConfig(weighting="bogus")
    with pytest.raises(RetentionError):
        RetentionConfig(weighting="hybrid", beta_mix=1.5)


# --- buffer ---------------------------------------------------------------------

def states(buffer, rows):
    """The state features of the ring's ``rows``, read through their ids."""
    return buffer.table[buffer.sid[rows]]


def test_buffer_evicts_oldest_first():
    buffer = ReplayBuffer(capacity=3)
    for i in range(5):
        buffer.extend(make_block(float(i), iteration=i))
    assert len(buffer) == 3
    assert buffer.oldest == 2
    order = buffer.order()
    assert states(buffer, order)[:, 0].tolist() == [2.0, 3.0, 4.0]
    assert buffer.stored_at[order].tolist() == [2, 3, 4]


def small_model(dim):
    model = init_params((dim, 4, 1), 11)

    def value(x):  # hand forward pass: ReLU hidden layer, linear output
        hidden = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        return -float(hidden @ model.weights[1][:, 0] + model.biases[1][0])

    return model, value


def hand_td(rows, value, gamma):
    """r + gamma * V(s') - V(s) per (features, enclosing features or None,
    latency) row."""
    return [
        (-math.log1p(latency) if enclosing is None else gamma * value(enclosing))
        - value(features)
        for features, enclosing, latency in rows
    ]


def block_rows(block):
    """(features, enclosing join's features or None, latency) per row."""
    return [
        (x, None if up < 0 else block.features[up], block.latency_ms)
        for x, up in zip(block.features, block.parent)
    ]


def test_ring_wrap_td_error_and_sampling_match_hand_oracles(rng):
    """Plans of one and two rows, written until the ring wraps and a plan is
    split: the buffer keeps the newest ``capacity`` rows oldest first, and
    their TD errors, sampling probabilities and batch rows match per-row hand
    formulas.  A hand-set next state is the root of its plan's block."""
    capacity, dim = 7, 3
    model, value = small_model(dim)
    blocks = []
    for i in range(10):
        terminal = i % 3 == 0
        blocks.append(
            PlanBlock(
                f"q{i}",
                i // 2,
                float(rng.uniform(1.0, 1e4)),
                rng.normal(size=(1 if terminal else 2, dim)),
                [-1] if terminal else [-1, 0],
            )
        )
    buffer = ReplayBuffer(capacity)
    for block in blocks:
        buffer.extend(block)
    rows = [row for block in blocks for row in block_rows(block)][-capacity:]
    ids = [block.query_id for block in blocks for _ in range(len(block))][-capacity:]
    taus = np.array(
        [block.iteration for block in blocks for _ in range(len(block))][-capacity:],
        dtype=float,
    )
    order = buffer.order()
    assert len(buffer) == capacity
    assert list(buffer.query_id[order]) == ids
    # The oldest buffered row is the child of a plan whose root was evicted,
    # and the root's state is still in the table.
    assert rows[0][1] is not None
    assert np.array_equal(buffer.table[buffer.next_sid[order[0]]], rows[0][1])

    gamma = 0.9
    want_td = hand_td(rows, value, gamma)
    assert td_error(buffer, model, gamma) == pytest.approx(want_td, rel=1e-12)

    powered = np.abs(want_td)
    norm = (powered - powered.min()) / (powered.max() - powered.min())
    span = max(1.0, taus.max() - taus.min())
    recency = 1.0 - (taus.max() - taus) / span
    weights = 0.25 * norm + 0.75 * recency
    cfg = RetentionConfig(weighting="hybrid", beta_mix=0.25, k_replay=40, gamma=gamma, alpha_td=1.0)
    (features, labels), stats = sample_replay(buffer, model, cfg, 5)
    assert stats.probabilities == pytest.approx(weights / weights.sum(), rel=1e-9)
    idx = stats.sampled_indices
    want_features = states(buffer, order[idx])
    want_features[:, -1] = stats.recency[idx]
    assert np.array_equal(features, want_features)
    assert stats.recency[idx] == pytest.approx(recency[idx], rel=1e-12)
    assert labels.tolist() == [math.log1p(rows[i][2]) for i in idx]


def test_split_plan_reads_its_evicted_enclosing_join(rng):
    """Ring writes that evict a plan's root, then its middle join: each
    surviving child's TD uses the value of its evicted enclosing join."""
    dim, gamma = 3, 0.8
    model, value = small_model(dim)
    plan = PlanBlock("p", 0, 50.0, rng.normal(size=(3, dim)), [-1, 0, 1])
    buffer = ReplayBuffer(3)
    buffer.extend(plan)
    rows = block_rows(plan)
    for step in (1, 2):
        other = PlanBlock(f"o{step}", step, 7.0, rng.normal(size=(1, dim)), [-1])
        buffer.extend(other)
        rows += block_rows(other)
        assert buffer.oldest == step
        want = hand_td(rows[-3:], value, gamma)
        assert td_error(buffer, model, gamma) == pytest.approx(want, rel=1e-12)


def test_evicted_enclosing_state_stays_while_a_live_row_uses_it():
    """A 3-row chain in a 3-row ring: the next write evicts the root and
    puts the table past the ring's slots, so it compacts, yet keeps the
    root's state, which the live middle join reaches through ``next_sid``;
    the write after that evicts the middle join too, and the compaction
    then drops the root's state and keeps the middle join's."""
    buffer = ReplayBuffer(3)
    buffer.extend(make_block(1.0, 2.0, 3.0, parent=(-1, 0, 1), latency=5.0))
    buffer.extend(make_block(4.0, latency=6.0))  # evicts the root, 1.0
    order = buffer.order()
    assert states(buffer, order)[:, 0].tolist() == [2.0, 3.0, 4.0]
    assert buffer.table[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert buffer.table[buffer.next_sid[order[0]], 0] == 1.0
    # identity model: V(s) = -s; the middle join's successor is the root
    assert td_error(buffer, identity_model(), 1.0).tolist() == [1.0, 1.0, 4.0 - math.log1p(6.0)]
    buffer.extend(make_block(5.0, latency=7.0))  # evicts the middle join, 2.0
    order = buffer.order()
    assert buffer.table[:, 0].tolist() == [2.0, 3.0, 4.0, 5.0]
    assert buffer.table[buffer.next_sid[order[0]], 0] == 2.0
    assert buffer.ids == {row.tobytes(): i for i, row in enumerate(buffer.table)}


def test_block_wraps_past_the_ring_end(rng):
    """A block written across the end of the ring, evicting all but the
    last row of the plan before it: the ring holds the newest rows oldest
    first, and their TD errors match the hand oracle."""
    dim, gamma = 2, 0.7
    model, value = small_model(dim)
    first = PlanBlock("a", 0, 3.0, rng.normal(size=(3, dim)), [-1, 0, 0])
    second = PlanBlock("b", 1, 9.0, rng.normal(size=(4, dim)), [-1, 0, 1, 0])
    third = PlanBlock("c", 2, 5.0, rng.normal(size=(4, dim)), [-1, 0, 0, 2])
    buffer = ReplayBuffer(5)
    for block in (first, second, third):
        buffer.extend(block)
    assert np.diff(buffer.order()).min() < 0  # the live rows span the ring's end
    assert np.array_equal(
        states(buffer, buffer.order()), np.vstack([second.features[3:], third.features])
    )
    rows = (block_rows(first) + block_rows(second) + block_rows(third))[-5:]
    assert td_error(buffer, model, gamma) == pytest.approx(hand_td(rows, value, gamma), rel=1e-12)


def test_block_longer_than_capacity(rng):
    """Only the tail of a block longer than the ring is buffered; its rows
    still reach enclosing joins that were never written to the ring."""
    dim, gamma = 2, 0.9
    model, value = small_model(dim)
    chain = PlanBlock("c", 2, 40.0, rng.normal(size=(5, dim)), [-1, 0, 1, 2, 3])
    buffer = ReplayBuffer(3)
    buffer.extend(chain)
    assert len(buffer) == 3 and buffer.oldest == 2
    assert np.array_equal(states(buffer, buffer.order()), chain.features[2:])
    want = hand_td(block_rows(chain)[2:], value, gamma)
    assert td_error(buffer, model, gamma) == pytest.approx(want, rel=1e-12)
    tail = PlanBlock("d", 3, 4.0, rng.normal(size=(1, dim)), [-1])
    buffer.extend(tail)
    want = hand_td(block_rows(chain)[3:] + block_rows(tail), value, gamma)
    assert td_error(buffer, model, gamma) == pytest.approx(want, rel=1e-12)


class KeptRing(ReplayBuffer):
    """The earlier ring, kept as the reference: ``capacity`` rows of
    materialized states, ``state``, each row's block index of its enclosing
    join, ``parent``, and its plan's root number, ``root``, and the oldest
    plan's evicted rows, from its root (row number ``kept_from``) on, copied
    aside into ``kept`` at each write that evicts them.  It writes several
    blocks one after another.  ``reference_td_error``, not ``td_error``,
    scores it."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.kept_from = 0

    def extend(self, *blocks):
        for block in blocks:
            self._write(block)

    def _write(self, block):
        cap, start, end = self.capacity, self.end, self.end + len(block)
        if not self.end:
            self.state = np.zeros((cap, block.features.shape[1]))
            self.parent = np.zeros(cap, dtype=np.int64)
            self.root = np.zeros(cap, dtype=np.int64)
            self.stored_at = np.zeros(cap, dtype=np.int64)
            self.latency = np.zeros(cap)
            self.label = np.zeros(cap)
            self.query_id = np.empty(cap, dtype=object)
            self.kept = block.features[:0]
        oldest = max(0, end - cap)
        if oldest >= start:  # this block is now the oldest plan
            self.kept_from, self.kept = start, block.features[: oldest - start]
        elif oldest > self.oldest:  # rows are evicted; keep those of the oldest plan
            root = int(self.root[oldest % cap])
            evicted = np.arange(max(root, self.oldest), oldest) % cap
            self.kept = np.concatenate([self.kept[root - self.kept_from :], self.state[evicted]])
            self.kept_from = root
        head = max(start, oldest) - start  # rows of the block that the ring never holds
        rows = np.arange(start + head, end) % cap
        self.state[rows] = block.features[head:]
        self.parent[rows] = block.parent[head:]
        self.root[rows] = start
        self.stored_at[rows] = block.iteration
        self.latency[rows] = block.latency_ms
        self.label[rows] = block.label
        self.query_id[rows] = block.query_id
        self.oldest, self.end = oldest, end

    def order(self):
        return np.arange(self.oldest, self.end) % self.capacity

    def batch(self, positions, recency):
        rows = self.order()[positions]
        features = self.state[rows]
        features[:, -1] = recency
        return features, self.label[rows]


def reference_td_error(buffer, model, gamma):
    """The earlier scoring of a ``KeptRing``, kept as the reference: one
    plain forward pass over its materialized states, the ring's rows copied
    by fancy index, then ``np.concatenate`` with ``kept``."""
    rows = buffer.order()
    values = -predict_batch(model, np.concatenate([buffer.state[rows], buffer.kept]))
    parent = buffer.parent[rows]
    live = parent >= 0
    up = buffer.root[rows] + parent
    at = np.where(up >= buffer.oldest, up - buffer.oldest, len(rows) + parent)
    next_values = np.zeros(len(rows))
    next_values[live] = values[at[live]]
    reward = np.where(live, 0.0, -buffer.label[rows])
    return reward + gamma * next_values - values[: len(rows)]


def chain_block(rng, i, rows, dim):
    """A plan of ``rows`` nested joins, each row enclosed by the one before."""
    return PlanBlock(
        f"q{i}", i // 4, float(rng.uniform(1.0, 1e4)), rng.normal(size=(rows, dim)),
        np.arange(rows) - 1,
    )


def split_at(reference):
    """The number of rows of the oldest plan that a ``KeptRing`` has
    evicted."""
    return reference.oldest - reference.root[reference.oldest % reference.capacity]


def is_split(buffer):
    """Whether the ring has evicted some of its oldest plan's rows: blocks
    list the root first, so the oldest buffered row is then not a root."""
    return bool(buffer.next_sid[buffer.oldest % buffer.capacity] >= 0)


def used_ids(buffer):
    """The table ids that the buffered rows use, through ``sid`` or
    ``next_sid``."""
    rows = buffer.order()
    return set(buffer.sid[rows].tolist()) | set(buffer.next_sid[rows].tolist()) - {-1}


def test_td_error_on_a_wrapped_ring_matches_reference_bits(rng):
    """Blocks of one to five rows, chain and bushy, fill the ring past its
    end again and again; capacities 3 and 1 are below the longest block, so
    a write can evict the head of its own block.  After every write the TD
    errors equal those of the reference ring by ``tobytes()``; more than 20
    writes per capacity leave the oldest plan split.  Rows are all
    distinct, or drawn from a pool of 12 states or of one, so the pass
    scores one row per distinct state, and its pass may have one row.  With
    more than one state the table compacts mid-run, when it holds more rows
    than the ring has slots, and then holds only the ids its rows use."""
    dim, gamma, longest = 6, 0.9, 5
    model = init_params((dim, 64, 64, 1), 4)
    for pool in (None, 12, 1):
        states_pool = rng.normal(size=(pool or 1, dim))
        compacted = 0  # writes after which the table lacks a state written before
        for capacity in (50, 3, 1):
            buffer, reference = ReplayBuffer(capacity), KeptRing(capacity)
            checked, seen = 0, set()
            for i in range(120):
                rows = int(rng.integers(1, longest + 1))
                parent = [-1] + [int(rng.integers(0, up)) for up in range(1, rows)]
                if pool is None:
                    features = rng.normal(size=(rows, dim))
                else:
                    features = states_pool[rng.integers(0, pool, size=rows)]
                block = PlanBlock(
                    f"q{i}", i // 4, float(rng.uniform(1.0, 1e4)), features, np.array(parent)
                )
                buffer.extend(block)
                reference.extend(block)
                seen |= {row.tobytes() for row in features}
                compacted += len(buffer.table) < len(seen)
                if len(buffer.table) > capacity:
                    assert used_ids(buffer) == set(range(len(buffer.table)))
                keys = [buffer.ids[row.tobytes()] for row in buffer.table]
                assert keys == list(range(len(buffer.ids)))
                assert buffer.oldest == reference.oldest and len(buffer) == len(reference)
                got = td_error(buffer, model, gamma)
                assert got.tobytes() == reference_td_error(reference, model, gamma).tobytes()
                assert is_split(buffer) == (split_at(reference) > 0)
                if split_at(reference):
                    assert len(buffer) == capacity and split_at(reference) == len(reference.kept)
                    checked += 1
            assert checked > 20
        assert (compacted > 0) == (pool != 1), pool


RING_COLUMNS = ("stored_at", "latency", "label", "query_id")


def test_extend_with_several_blocks_equals_one_call_per_block(rng):
    """``extend(*blocks)`` leaves the ring as one ``extend`` per block does:
    every column, the states of the written slots and of their enclosing
    joins, ``order()`` and the ``td_error`` bytes.  Calls take zero to
    twelve blocks of one to three rows; the first one writes twelve 3-row
    blocks, 36 rows, which wrap the 5-row ring more than seven times.
    ``extend()`` with no block is a no-op, also on an empty ring."""
    dim, gamma, longest = 4, 0.9, 3
    model = init_params((dim, 8, 1), 5)
    for capacity in (5, 40):
        several, single = ReplayBuffer(capacity), ReplayBuffer(capacity)
        several.extend()
        assert len(several) == 0 and several.end == 0
        for call, count in enumerate([12, 0, 1, 3, 12, 2, 7, 0, 12, 5]):
            blocks = []
            for i in range(count):
                rows = longest if call == 0 else int(rng.integers(1, longest + 1))
                parent = [-1] + [int(rng.integers(0, up)) for up in range(1, rows)]
                blocks.append(PlanBlock(
                    f"q{call}.{i}", call, float(rng.uniform(1.0, 1e4)),
                    rng.normal(size=(rows, dim)), np.array(parent),
                ))
            for block in blocks:
                single.extend(block)
            several.extend(*blocks)
            assert (several.oldest, several.end) == (single.oldest, single.end)
            for name in RING_COLUMNS:
                assert getattr(several, name).tolist() == getattr(single, name).tolist(), name
            assert np.array_equal(several.order(), single.order())
            written = np.arange(min(several.end, several.capacity))
            assert states(several, written).tobytes() == states(single, written).tobytes()
            up = several.next_sid[written]
            assert np.array_equal(up >= 0, single.next_sid[written] >= 0)
            enclosing = several.table[up[up >= 0]]
            assert enclosing.tobytes() == single.table[single.next_sid[written][up >= 0]].tobytes()
            assert (
                td_error(several, model, gamma).tobytes()
                == td_error(single, model, gamma).tobytes()
            )


def test_td_error_peak_memory_is_one_matrix_per_layer(rng):
    """The tracemalloc peak of one ``td_error`` over a full 20 000-row ring
    and a d-64-64-1 model.  By design the pass holds its input matrix (d
    columns) and one activation array per hidden layer (64 + 64 columns) of
    8-byte values for every scored row.  The allowance is eight vectors of
    one 8-byte value per scored row: the output column and the O(rows)
    bookkeeping (``order()``, parents, enclosing numbers, places in the
    pass, next values, rewards, values)."""
    import tracemalloc

    dim = 14  # the bundled star6 catalog's feature width
    model = init_params((dim, 64, 64, 1), 4)
    buffer = ReplayBuffer(20_000)
    for i in range(6_800):
        buffer.extend(chain_block(rng, i, 3, dim))
    assert len(buffer) == 20_000 and is_split(buffer)
    # Every buffered state and the split plan's evicted root, its rows'
    # enclosing join.
    scored = len(buffer.table)
    assert scored == len(buffer) + buffer.oldest % 3
    bound = scored * (dim + 64 + 64) * 8 + 8 * scored * 8
    tracemalloc.start()
    try:
        td_error(buffer, model, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB > bound {bound / 1e6:.2f} MB"


def test_fresh_batch_matches_uniform_hand_oracle(rng):
    """The fresh-only batch: rows drawn uniformly from this iteration's
    blocks, taken block after block, recency slot 1.0, labelled with their
    plan's log1p latency."""
    blocks = [
        PlanBlock(f"q{i}", 4, float(10 * (i + 1)), rng.normal(size=(n, 3)), [-1] + [0] * (n - 1))
        for i, n in enumerate((2, 1, 3))
    ]
    rows = [(x.copy(), b.latency_ms) for b in blocks for x in b.features]
    batch = fresh_batch(blocks, 20, np.random.default_rng(8))
    drawn = np.random.default_rng(8).integers(0, len(rows), size=20)
    for got, got_label, pos in zip(*batch, drawn):
        features, latency = rows[pos]
        assert got[:-1].tolist() == features[:-1].tolist()
        assert got[-1] == 1.0
        assert got_label == math.log1p(latency)
    # The blocks themselves are untouched.
    assert [x.tolist() for b in blocks for x in b.features] == [x.tolist() for x, _ in rows]


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
    buffer.extend(make_block(1.0, iteration=5))
    buffer.extend(make_block(1.0, iteration=5))
    buffer.extend(make_block(1.0, iteration=10))
    # All deltas equal -> norm 0.5 everywhere; recency: span 5, tau = 0,0,1
    # hybrid(0.5): w = [0.25, 0.25, 0.75]... use beta 1/3 to get [1,1,2]/norm?
    # Cleaner: recency-only gives w = [0, 0, 1] -> p = [0, 0, 1].
    cfg = RetentionConfig(weighting="recency", k_replay=5, gamma=1.0, alpha_td=1.0)
    (features, _), stats = sample_replay(buffer, model, cfg, 0)
    assert stats.probabilities == pytest.approx([0.0, 0.0, 1.0])
    assert len(features) == 5
    assert buffer.stored_at[buffer.order()[stats.sampled_indices]].tolist() == [10] * 5


def test_sample_probability_normalization(rng):
    model = identity_model()
    buffer = ReplayBuffer(100)
    for i in range(40):
        state = float(rng.normal())
        if rng.uniform() < 0.7:  # a hand-set next state: the block's root
            states, parent = (float(rng.normal()), state), (-1, 0)
        else:
            states, parent = (state,), (-1,)
        buffer.extend(
            make_block(
                *states,
                parent=parent,
                latency=abs(float(rng.normal())) * 10,
                iteration=int(rng.integers(0, 20)),
            )
        )
    for weighting in ("recency", "td_low", "td_high", "hybrid"):
        cfg = RetentionConfig(
            weighting=weighting, beta_mix=0.5, k_replay=10, gamma=1.0, alpha_td=1.0
        )
        _, stats = sample_replay(buffer, model, cfg, 1)
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
        buffer.extend(make_block(s))
    cfg = RetentionConfig(weighting="td_high", k_replay=100_000, gamma=1.0, alpha_td=1.0)
    _, stats = sample_replay(buffer, model, cfg, 7)
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
    buffer.extend(make_block(3.0, latency=42.0))
    cfg = RetentionConfig(weighting="hybrid", k_replay=5, gamma=1.0, alpha_td=1.0)
    (features, labels), stats = sample_replay(buffer, model, cfg, 0)
    assert len(features) == 5
    assert stats.sampled_indices.tolist() == [0] * 5
    assert buffer.latency[buffer.order()[stats.sampled_indices]].tolist() == [42.0] * 5
    assert labels.tolist() == [math.log1p(42.0)] * 5


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

    buffer.extend(make_block(1.0, iteration=0))
    buffer.extend(make_block(2.0, iteration=0))
    orig = r._priorities

    def zero_priorities(buffer, model, cfg):
        w, n, t = orig(buffer, model, cfg)
        return np.zeros_like(w), n, t

    r._priorities = zero_priorities
    try:
        cfg = RetentionConfig(weighting="hybrid", k_replay=1000, gamma=1.0, alpha_td=1.0)
        _, stats = sample_replay(buffer, model, cfg, 3)
    finally:
        r._priorities = orig
    assert stats.probabilities == pytest.approx([0.5, 0.5])
    counts = np.bincount(stats.sampled_indices, minlength=2)
    assert counts.min() > 400


def test_sample_deterministic_per_seed():
    model = identity_model()
    buffer = ReplayBuffer(100)
    for i in range(20):
        buffer.extend(make_block(float(i), iteration=i))
    cfg = RetentionConfig(weighting="hybrid", k_replay=16, gamma=1.0, alpha_td=1.0)
    a, stats_a = sample_replay(buffer, model, cfg, 99)
    b, stats_b = sample_replay(buffer, model, cfg, 99)
    assert np.array_equal(stats_a.sampled_indices, stats_b.sampled_indices)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_sample_fills_recency_slot():
    model = identity_model()
    buffer = ReplayBuffer(10)
    buffer.extend(make_block(1.0, iteration=0))
    buffer.extend(make_block(2.0, iteration=10))
    cfg = RetentionConfig(weighting="hybrid", k_replay=50, gamma=1.0, alpha_td=1.0)
    (features, _), stats = sample_replay(buffer, model, cfg, 0)
    stored_at = buffer.stored_at[buffer.order()[stats.sampled_indices]]
    for row, tau in zip(features, stored_at):
        expected = 1.0 if tau == 10 else 0.0
        assert row[-1] == expected
    # the buffered rows are untouched
    assert states(buffer, buffer.order())[:, -1].tolist() == [1.0, 2.0]


def test_sample_empty_buffer():
    with pytest.raises(RetentionError, match="empty"):
        cfg = RetentionConfig(weighting="hybrid", k_replay=1, gamma=1.0, alpha_td=1.0)
        sample_replay(ReplayBuffer(5), identity_model(), cfg, 0)
