"""Plan trees, and the partial-plan MDP over fragment summaries: the initial
state (the context's scans), the legal pairs of a state and the join that
applies one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joinopt.plans import JOIN_OPS, Join, JoinOp, Scan
from joinopt.simulator import (
    CostModelConfig,
    QueryContext,
    SimulatorError,
    join_columns,
    join_info,
    legal_pairs,
    plan_infos,
)

from conftest import make_catalog, make_query, random_tree_catalog_and_query


@pytest.fixture
def chain3(chain3_query, chain3_catalog, default_cost):
    return QueryContext(chain3_query, chain3_catalog, default_cost)


@pytest.fixture
def pair(pair_query, pair_catalog, default_cost):
    return QueryContext(pair_query, pair_catalog, default_cost)


def test_initial_state_counts(chain3):
    state = chain3.scans
    assert len(state) == 3
    assert all(isinstance(f.node, Scan) for f in state)
    assert [f.node.table for f in state] == ["a", "b", "c"]
    assert [f.mask for f in state] == [1, 2, 4]


def test_initial_state_two_relations(pair):
    state = pair.scans
    assert len(state) == 2
    assert legal_pairs(state, pair, False)


def test_initial_state_pure(chain3, chain3_query, chain3_catalog, default_cost):
    """The scans are compiled once per context, and equal in every context
    of the same query."""
    assert chain3.scans is chain3.scans
    assert chain3.scans == QueryContext(chain3_query, chain3_catalog, default_cost).scans
    assert [f.rows for f in chain3.scans] == [chain3.cardinality(f.mask) for f in chain3.scans]


def test_legal_actions_two_fragments(pair):
    pairs = legal_pairs(pair.scans, pair, False)
    assert len(JOIN_OPS) * len(pairs) == 6  # 2 ordered pairs x 3 operators
    assert pairs == [(0, 1), (1, 0)]
    assert JOIN_OPS == (JoinOp.HASH, JoinOp.MERGE, JoinOp.NESTED_LOOP)


def test_legal_actions_chain_excludes_cross_product(chain3):
    # Oracle: enumerate by hand. Fragments sorted as (a, b, c); edges a-b, b-c.
    # Connected ordered pairs: (a,b), (b,a), (b,c), (c,b); never (a,c)/(c,a).
    pairs = legal_pairs(chain3.scans, chain3, False)
    assert len(JOIN_OPS) * len(pairs) == 12
    assert pairs == [(0, 1), (1, 0), (1, 2), (2, 1)]


def step(state, i, j, op, ctx):
    """The join of fragments i and j by ``op`` and the next partial plan,
    through ``JoinColumns.joined`` as plan search takes the step."""
    return join_columns([(state[i], state[j])], ctx).joined(state, JOIN_OPS.index(op), i, j)


def test_legal_actions_terminal_state(pair):
    state = pair.scans
    _, terminal = step(state, *legal_pairs(state, pair, False)[0], JoinOp.HASH, pair)
    assert len(terminal) == 1
    assert legal_pairs(terminal, pair, False) == []
    assert legal_pairs(terminal, pair, True) == []


def test_apply_action_reduces_fragments(default_cost):
    query = make_query(
        "q4",
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    catalog = make_catalog([(t, 10, 8, 1.0) for t in "abcd"])
    ctx = QueryContext(query, catalog, default_cost)
    state = ctx.scans
    assert len(state) == 4
    joined, nxt = step(state, *legal_pairs(state, ctx, False)[0], JoinOp.HASH, ctx)
    assert len(nxt) == 3
    assert joined in nxt
    assert joined == join_info(state[0], state[1], JoinOp.HASH, ctx)


def test_full_rollout_reaches_terminal(chain3, chain3_query):
    state = chain3.scans
    for _ in range(len(chain3_query.relations) - 1):
        _, state = step(state, *legal_pairs(state, chain3, False)[0], JoinOp.HASH, chain3)
    assert len(state) == 1
    assert state[0].mask == chain3.full_mask
    assert plan_infos(state[0].node, chain3)[-1].mask == chain3.full_mask


def test_plan_infos_rejects_duplicate_table(pair):
    tree = Join(Scan("r"), Join(Scan("r"), Scan("s"), JoinOp.HASH), JoinOp.MERGE)
    with pytest.raises(SimulatorError, match="plan joins overlapping relation sets"):
        plan_infos(tree, pair)


def test_left_deep_restriction(chain3):
    state = chain3.scans
    first = legal_pairs(state, chain3, True)
    assert first == legal_pairs(state, chain3, False)  # no composite yet
    _, state = step(state, *first[0], JoinOp.HASH, chain3)
    pairs = legal_pairs(state, chain3, True)
    composite = [i for i, f in enumerate(state) if isinstance(f.node, Join)]
    assert composite
    assert pairs
    assert all(i == composite[0] for i, _ in pairs)
    assert all(isinstance(state[j].node, Scan) for _, j in pairs)


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
    state = ctx.scans
    steps = 0
    while len(state) > 1:
        pairs = legal_pairs(state, ctx, left_deep)
        assert pairs, "connected query must always have a legal join"
        for i, j in pairs:
            left = ctx.names(plan_infos(state[i].node, ctx)[-1].mask)
            right = ctx.names(plan_infos(state[j].node, ctx)[-1].mask)
            assert any(
                (a in left and b in right) or (a in right and b in left)
                for a, b in query.join_edges
            )
            if left_deep:
                assert isinstance(state[j].node, Scan)
        k = int(rng.integers(len(JOIN_OPS) * len(pairs)))
        i, j = pairs[k // len(JOIN_OPS)]
        _, state = step(state, i, j, JOIN_OPS[k % len(JOIN_OPS)], ctx)
        steps += 1
        relsets = [frozenset(ctx.names(plan_infos(f.node, ctx)[-1].mask)) for f in state]
        union = frozenset().union(*relsets)
        assert union == frozenset(query.relations)
        assert sum(len(r) for r in relsets) == len(query.relations)
        assert relsets == sorted(relsets, key=sorted)
        assert [f.mask for f in state] == [
            sum(ctx.bit[r] for r in rels) for rels in relsets
        ]
    assert steps == n_rels - 1
    assert legal_pairs(state, ctx, left_deep) == []
