"""Plan trees, and the partial-plan MDP over fragment summaries: the initial
state, the legal successors of a state and the join that applies one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joinopt.plans import Join, JoinOp, PlanError, Scan, validate_plan
from joinopt.simulator import (
    CostModelConfig,
    QueryContext,
    initial_fragments,
    join_fragments,
    join_info,
    scan_info,
    successors,
)

from conftest import make_catalog, make_query, random_tree_catalog_and_query


@pytest.fixture
def chain3(chain3_query, chain3_catalog, default_cost):
    return QueryContext(chain3_query, chain3_catalog, default_cost)


@pytest.fixture
def pair(pair_query, pair_catalog, default_cost):
    return QueryContext(pair_query, pair_catalog, default_cost)


def test_initial_state_counts(chain3):
    state = initial_fragments(chain3)
    assert len(state) == 3
    assert all(isinstance(f.node, Scan) for f in state)
    assert [f.node.table for f in state] == ["a", "b", "c"]
    assert [f.mask for f in state] == [1, 2, 4]


def test_initial_state_two_relations(pair):
    state = initial_fragments(pair)
    assert len(state) == 2
    assert successors(state, pair, False)


def test_initial_state_pure(chain3):
    assert initial_fragments(chain3) == initial_fragments(chain3)


def test_legal_actions_two_fragments(pair):
    moves = successors(initial_fragments(pair), pair, False)
    assert len(moves) == 6  # 2 ordered pairs x 3 operators
    assert {(i, j) for i, j, _ in moves} == {(0, 1), (1, 0)}
    assert [op for _, _, op in moves[:3]] == [JoinOp.HASH, JoinOp.MERGE, JoinOp.NESTED_LOOP]


def test_legal_actions_chain_excludes_cross_product(chain3):
    # Oracle: enumerate by hand. Fragments sorted as (a, b, c); edges a-b, b-c.
    # Connected ordered pairs: (a,b), (b,a), (b,c), (c,b); never (a,c)/(c,a).
    moves = successors(initial_fragments(chain3), chain3, False)
    assert len(moves) == 12
    pairs = [(i, j) for i, j, _ in moves[::3]]
    assert pairs == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_legal_actions_terminal_state(pair):
    state = initial_fragments(pair)
    _, terminal = join_fragments(state, *successors(state, pair, False)[0], pair)
    assert len(terminal) == 1
    assert successors(terminal, pair, False) == []
    assert successors(terminal, pair, True) == []


def test_apply_action_reduces_fragments(default_cost):
    query = make_query(
        "q4",
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    catalog = make_catalog([(t, 10, 8, 1.0) for t in "abcd"])
    ctx = QueryContext(query, catalog, default_cost)
    state = initial_fragments(ctx)
    assert len(state) == 4
    joined, nxt = join_fragments(state, *successors(state, ctx, False)[0], ctx)
    assert len(nxt) == 3
    assert joined in nxt
    assert joined == join_info(state[0], state[1], JoinOp.HASH, ctx)


def test_full_rollout_reaches_terminal(chain3, chain3_query):
    state = initial_fragments(chain3)
    for _ in range(len(chain3_query.relations) - 1):
        _, state = join_fragments(state, *successors(state, chain3, False)[0], chain3)
    assert len(state) == 1
    assert state[0].mask == chain3.full_mask
    assert validate_plan(state[0].node) == frozenset(chain3_query.relations)


def test_apply_action_rejects_bad_indices(pair):
    state = initial_fragments(pair)
    with pytest.raises(PlanError, match="distinct"):
        join_fragments(state, 0, 0, JoinOp.HASH, pair)
    with pytest.raises(PlanError, match="out of range"):
        join_fragments(state, 0, 5, JoinOp.HASH, pair)


def test_apply_action_rejects_overlapping_fragments(pair):
    # A state violating the partition invariant can only be built by hand.
    r, s = scan_info("r", pair), scan_info("s", pair)
    bad = (r, join_info(r, s, JoinOp.HASH, pair))
    with pytest.raises(PlanError, match="overlap"):
        join_fragments(bad, 0, 1, JoinOp.HASH, pair)


def test_validate_plan_rejects_duplicate_table():
    tree = Join(Scan("a"), Join(Scan("a"), Scan("b"), JoinOp.HASH), JoinOp.MERGE)
    with pytest.raises(PlanError, match="both sides"):
        validate_plan(tree)


def test_left_deep_restriction(chain3):
    state = initial_fragments(chain3)
    first = successors(state, chain3, True)
    assert first == successors(state, chain3, False)  # no composite yet
    _, state = join_fragments(state, *first[0], chain3)
    moves = successors(state, chain3, True)
    composite = [i for i, f in enumerate(state) if isinstance(f.node, Join)]
    assert composite
    assert moves
    assert all(i == composite[0] for i, _, _ in moves)
    assert all(isinstance(state[j].node, Scan) for _, j, _ in moves)


@settings(max_examples=40, deadline=None)
@given(
    n_rels=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    left_deep=st.booleans(),
)
def test_random_rollouts_preserve_invariants(n_rels, seed, left_deep):
    """Every reachable state partitions the query relations, in fragment
    order; terminal is reached in exactly n-1 legal joins; no proposed pair
    is a cross product; left-deep rollouts join a scan on the right."""
    rng = np.random.default_rng(seed)
    catalog, query = random_tree_catalog_and_query(rng, n_rels)
    ctx = QueryContext(query, catalog, CostModelConfig())
    state = initial_fragments(ctx)
    steps = 0
    while len(state) > 1:
        moves = successors(state, ctx, left_deep)
        assert moves, "connected query must always have a legal join"
        for i, j, _ in moves:
            left = validate_plan(state[i].node)
            right = validate_plan(state[j].node)
            assert query.edges_between(left, right)
            if left_deep:
                assert isinstance(state[j].node, Scan)
        i, j, op = moves[int(rng.integers(len(moves)))]
        _, state = join_fragments(state, i, j, op, ctx)
        steps += 1
        relsets = [validate_plan(f.node) for f in state]
        union = frozenset().union(*relsets)
        assert union == frozenset(query.relations)
        assert sum(len(r) for r in relsets) == len(query.relations)
        assert relsets == sorted(relsets, key=sorted)
        assert [f.mask for f in state] == [
            sum(ctx.bit[r] for r in rels) for rels in relsets
        ]
    assert steps == n_rels - 1
    assert successors(state, ctx, left_deep) == []
