import math

import numpy as np
import pytest

from joinopt.features import RECENCY_SLOT, feature_dim, feature_matrix, fragment_rows
from joinopt.plans import JOIN_OPS, Join, JoinOp, Scan
from joinopt.simulator import (
    QueryContext,
    join_columns,
    join_info,
    legal_pairs,
    plan_infos,
)
from joinopt.trainer import random_rollout

from conftest import make_catalog, make_query, random_tree_catalog_and_query


@pytest.fixture
def ctx(chain3_catalog, chain3_query, default_cost):
    return QueryContext(chain3_query, chain3_catalog, default_cost)


def test_feature_layout(ctx, chain3_catalog):
    d = feature_dim(chain3_catalog)
    assert d == 3 + 8
    vec = fragment_rows([ctx.scans[0]], ctx)[0]
    assert vec.shape == (d,)
    assert vec[0] == 1.0 and vec[1] == 0.0 and vec[2] == 0.0  # multi-hot a
    assert vec[3:6].tolist() == [0.0, 0.0, 0.0]  # no joins yet
    assert vec[6] == pytest.approx(math.log1p(100.0))
    assert vec[9] == 0.0  # depth
    assert vec[RECENCY_SLOT] == 0.0


def test_join_feature_values(ctx, chain3_catalog, chain3_query, default_cost):
    joined = join_info(ctx.scans[0], ctx.scans[1], JoinOp.HASH, ctx)
    vec = fragment_rows([joined], ctx)[0]
    assert vec[0] == 1.0 and vec[1] == 1.0 and vec[2] == 0.0
    assert vec[3] == 1.0  # one hash join
    rows = 100.0 * 100.0 * 0.1
    assert vec[6] == pytest.approx(math.log1p(rows))
    assert vec[7] == pytest.approx(math.log1p(rows * 16.0))  # mean width 16
    assert vec[9] == 1.0  # depth
    assert vec[RECENCY_SLOT] == 0.0  # filled at sampling time


def test_incremental_info_matches_tree_walk(rng, default_cost):
    """Search-path (incremental JoinColumns.joined) and walk-path
    (plan_infos) must produce identical summaries and features for the same
    fragment."""
    for _ in range(10):
        catalog, query = random_tree_catalog_and_query(rng, int(rng.integers(3, 6)))
        ctx = QueryContext(query, catalog, default_cost)
        state = ctx.scans
        built = {f.mask: f for f in state}
        while len(state) > 1:
            pairs = legal_pairs(state, ctx, False)
            i, j = pairs[int(rng.integers(len(pairs)))]
            joined, state = join_columns([(state[i], state[j])], ctx).joined(
                state, int(rng.integers(len(JOIN_OPS))), i, j
            )
            built[joined.mask] = joined
        walked = plan_infos(state[0].node, ctx)
        assert len(walked) == 2 * len(query.relations) - 1
        assert walked[-1].node == state[0].node
        for info in walked:
            assert info == built[info.mask]
        np.testing.assert_array_equal(
            fragment_rows(walked, ctx),
            fragment_rows([built[info.mask] for info in walked], ctx),
        )


def test_plan_infos_is_post_order(default_cost):
    catalog = make_catalog([(t, 10, 8, 1.0) for t in "abcd"])
    query = make_query("q", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    ctx = QueryContext(query, catalog, default_cost)
    left = Join(Scan("a"), Scan("b"), JoinOp.HASH)
    right = Join(Scan("c"), Scan("d"), JoinOp.MERGE)
    plan = Join(left, right, JoinOp.NESTED_LOOP)
    nodes = [info.node for info in plan_infos(plan, ctx)]
    assert nodes == [Scan("a"), Scan("b"), left, Scan("c"), Scan("d"), right, plan]


def test_fragment_cost_matches_plan_cost(rng, default_cost):
    """The cost summary of a full plan equals QueryContext.cost exactly."""
    for _ in range(5):
        catalog, query = random_tree_catalog_and_query(rng, int(rng.integers(2, 6)))
        ctx = QueryContext(query, catalog, default_cost)
        plan = random_rollout(ctx, rng)
        info = plan_infos(plan, ctx)[-1]
        assert info.cost == QueryContext(query, catalog, default_cost).cost(plan)


def test_cardinality_memo_consistency(ctx, chain3_catalog, chain3_query):
    mask = ctx.bit["a"] | ctx.bit["b"]
    first = ctx.cardinality(mask)
    assert first == 100.0 * 100.0 * 0.1
    assert ctx.cardinality(mask) is first
    assert ctx.names(mask) == ("a", "b")


def test_depth_and_op_counts():
    catalog = make_catalog(
        [("a", 10, 8, 1.0), ("b", 10, 8, 1.0), ("c", 10, 8, 1.0), ("d", 10, 8, 1.0)],
        {("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "d"): 0.5},
    )
    query = make_query("q", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    from joinopt.simulator import CostModelConfig

    ctx = QueryContext(query, catalog, CostModelConfig())
    bushy = Join(
        Join(Scan("a"), Scan("b"), JoinOp.HASH),
        Join(Scan("c"), Scan("d"), JoinOp.NESTED_LOOP),
        JoinOp.MERGE,
    )
    info = plan_infos(bushy, ctx)[-1]
    assert info.depth == 2
    assert info.op_counts == (1, 1, 1)
    left_deep = Join(
        Join(Join(Scan("a"), Scan("b"), JoinOp.HASH), Scan("c"), JoinOp.HASH),
        Scan("d"),
        JoinOp.HASH,
    )
    info2 = plan_infos(left_deep, ctx)[-1]
    assert info2.depth == 3
    assert info2.op_counts == (3, 0, 0)


def scalar_features(info, ctx):
    """The feature layout written out one slot at a time, as the reference
    for the batched builder."""
    catalog = ctx.catalog
    t = len(catalog.tables)
    vec = np.zeros(t + 8)
    names = ctx.names(info.mask)
    for rel in names:
        vec[catalog.table_names.index(rel)] = 1.0
    widths = [catalog.table(r).row_width_bytes for r in names]
    vec[t : t + 3] = info.op_counts
    vec[t + 3] = math.log1p(info.rows)
    vec[t + 4] = math.log1p(info.rows * (sum(widths) / len(widths)))
    vec[t + 5] = math.log1p(info.cost)
    vec[t + 6] = info.depth
    return vec


def test_membership_columns_match_the_relation_names(rng, default_cost):
    """The multi-hot columns, read from the mask bits, mark exactly the
    catalog tables whose names the mask holds, on queries of up to 12
    relations."""
    for n_rels in range(2, 13):
        catalog, query = random_tree_catalog_and_query(rng, n_rels)
        ctx = QueryContext(query, catalog, default_cost)
        masks = [int(m) for m in rng.integers(1, ctx.full_mask + 1, size=20)]
        n = len(masks)
        matrix = feature_matrix(ctx, masks, [0] * n, [(0, 0, 0)] * n, [1.0] * n)
        expected = [
            [float(name in ctx.names(mask)) for name in catalog.table_names] for mask in masks
        ]
        assert matrix[:, : len(catalog.tables)].tolist() == expected


@pytest.mark.parametrize("left_deep", [False, True])
def test_frontier_rows_equal_joined_fragment_rows(rng, default_cost, left_deep):
    """Every row that plan search scores for a partial plan of a random tree
    query of 2-12 relations, built as one matrix from join_columns (one
    operator-count tuple per pair), equals bit for bit the
    one-slot-at-a-time reference of the fragment that join_info builds for
    the same (pair, operator), and that fragment's own row; the rows run
    over the legal pairs in order, each by the three operators in JOIN_OPS
    order."""
    checked = 0
    for _ in range(12):
        catalog, query = random_tree_catalog_and_query(rng, int(rng.integers(2, 13)))
        ctx = QueryContext(query, catalog, default_cost)
        state = ctx.scans
        while len(state) > 1:
            pairs = legal_pairs(state, ctx, left_deep)
            columns = join_columns([(state[i], state[j]) for i, j in pairs], ctx)
            matrix = feature_matrix(
                ctx, columns.masks, columns.depths, columns.op_counts, columns.costs
            )
            moves = [(i, j, op) for i, j in pairs for op in JOIN_OPS]
            assert matrix.shape == (len(JOIN_OPS) * len(pairs), feature_dim(catalog))
            for row, (i, j, op) in zip(matrix, moves):
                joined = join_info(state[i], state[j], op, ctx)
                assert np.array_equal(row, scalar_features(joined, ctx))
                assert np.array_equal(row, fragment_rows([joined], ctx)[0])
                checked += 1
            k = int(rng.integers(len(moves)))
            _, state = columns.joined(state, k, *moves[k][:2])
    assert checked > 200
