import math
from pathlib import Path

import numpy as np
import pytest

from joinopt.catalog import Catalog, edge_key, load_catalog, load_workload
from joinopt.plans import JOIN_OPS, Join, JoinOp, Scan
from joinopt.simulator import (
    DEFAULT_DP_LIMIT,
    CostModelConfig,
    QueryContext,
    SimulatorError,
    _names_before,
    execute,
    expert_baseline,
    expert_plan,
    join_columns,
    join_cost_increments,
    join_info,
    legal_pairs,
    noiseless_latency,
    plan_infos,
)

from conftest import make_catalog, make_query, random_tree_catalog_and_query

ROOT = Path(__file__).resolve().parents[1]


# --- independent brute-force oracle -----------------------------------------

def enumerate_plans(query):
    """Every cross-product-free bushy plan tree, by exhaustive recursion.

    Independent of the DP in the package: no memoized best-cost table, just
    full enumeration of (left, right, op) splits.
    """

    def plans_for(relset):
        rels = sorted(relset)
        if len(rels) == 1:
            yield Scan(rels[0])
            return
        seen_splits = []
        n = len(rels)
        for mask in range(1, 2 ** n - 1):
            left = frozenset(r for i, r in enumerate(rels) if mask >> i & 1)
            right = relset - left
            if not any(
                (a in left and b in right) or (a in right and b in left)
                for a, b in query.join_edges
            ):
                continue
            seen_splits.append((left, right))
        for left, right in seen_splits:
            for lp in plans_for(left):
                for rp in plans_for(right):
                    for op in (JoinOp.HASH, JoinOp.MERGE, JoinOp.NESTED_LOOP):
                        yield Join(lp, rp, op)

    yield from plans_for(frozenset(query.relations))


def hand_cardinality(names, query, catalog):
    """Filtered base rows of the named relations multiplied in sorted-name
    order, then the selectivity of each join edge inside the set, in sorted
    edge order."""
    rows = 1.0
    for rel in sorted(names):
        rows *= catalog.table(rel).row_count * catalog.table(rel).filter_selectivity
    for a, b in sorted(query.join_edges):
        if a in names and b in names:
            rows *= catalog.edge_selectivity(a, b)
    return rows


def brute_force_min_cost(query, catalog, cfg):
    """Minimum cost over every cross-product-free plan, by exhaustive
    enumeration of per-tree costs (no pruning, no best-per-subset table; the
    min is taken only at the end, over complete plans).  Costs compose as
    (left + right) + increment, matching QueryContext.cost's recursion bitwise;
    cardinalities are the test's own hand product."""
    from joinopt.simulator import scan_cost

    rels = sorted(query.relations)
    n = len(rels)
    index = {r: i for i, r in enumerate(rels)}
    adjacency = [0] * n
    for a, b in query.join_edges:
        adjacency[index[a]] |= 1 << index[b]
        adjacency[index[b]] |= 1 << index[a]
    card = {}

    def cardinality(mask):
        if mask not in card:
            names = [rels[i] for i in range(n) if mask >> i & 1]
            card[mask] = hand_cardinality(names, query, catalog)
        return card[mask]

    costs = {
        1 << i: [scan_cost(catalog.table(rels[i]).row_count, cfg)] for i in range(n)
    }
    full = (1 << n) - 1
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        out = []
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if (
                sub in costs
                and rest in costs
                and any(adjacency[i] & rest for i in range(n) if sub >> i & 1)
            ):
                lrows, rrows, orows = cardinality(sub), cardinality(rest), cardinality(mask)
                for inc in join_cost_increments(lrows, rrows, orows, cfg):
                    for lc in costs[sub]:
                        for rc in costs[rest]:
                            out.append(lc + rc + inc)
            sub = (sub - 1) & mask
        if out:
            costs[mask] = out
    return min(costs[full])


def subset_dp_plan(query, catalog, cfg):
    """The expert DP as a scan of every submask of every relation set: each
    submask that is solved, whose rest is solved and linked to it by an
    edge, is a left child, by each operator, under the key (cost, left
    names, right names, operator rank), the rank being the operator's index
    in ``JOIN_OPS``, which lists them in rank order.  The same candidates and
    key as ``expert_plan``, so the same plan, reached without its pair
    enumeration."""
    ctx = QueryContext(query, catalog, cfg)
    best = {scan.mask: (scan.cost, scan.node) for scan in ctx.scans}
    for mask in range(1, ctx.full_mask + 1):
        if mask & (mask - 1) == 0:
            continue
        out_rows = None
        chosen = None
        chosen_key = None
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            left = best.get(sub)
            right = best.get(rest)
            if left is not None and right is not None and ctx.neighbors(sub) & rest:
                if out_rows is None:
                    out_rows = ctx.cardinality(mask)
                left_rows = ctx.cardinality(sub)
                right_rows = ctx.cardinality(rest)
                base = left[0] + right[0]
                increments = join_cost_increments(left_rows, right_rows, out_rows, cfg)
                for op, increment in zip(JOIN_OPS, increments):
                    cost = base + increment
                    key = (cost, ctx.names(sub), ctx.names(rest), JOIN_OPS.index(op))
                    if chosen_key is None or key < chosen_key:
                        chosen_key = key
                        chosen = (cost, Join(left[1], right[1], op))
            sub = (sub - 1) & mask
        if chosen is not None:
            best[mask] = chosen
    return best[ctx.full_mask][1]


def with_extra_edges(rng, catalog, query, draws):
    """The query with ``draws`` random relation pairs added as join edges
    (repeats count once), each new edge with a random selectivity."""
    names = query.relations
    edges = set(query.join_edges)
    for _ in range(draws):
        i, j = rng.choice(len(names), size=2, replace=False)
        edges.add(edge_key(names[int(i)], names[int(j)]))
    selectivities = dict(catalog.join_selectivities)
    for edge in sorted(edges - selectivities.keys()):
        selectivities[edge] = float(10 ** rng.uniform(-3, -0.3))
    return Catalog(catalog.tables, selectivities), make_query(query.id, names, edges)


# --- cardinality -------------------------------------------------------------

def test_cardinality_single_relation(pair_catalog, pair_query, default_cost):
    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    assert ctx.cardinality(ctx.bit["r"]) == 100.0


def test_cardinality_two_relations(pair_catalog, pair_query, default_cost):
    # 100 x 200 x 0.01 = 200
    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    assert ctx.cardinality(ctx.full_mask) == pytest.approx(200.0)


def test_cardinality_three_relation_chain(chain3_catalog, chain3_query, default_cost):
    # 100^3 x 0.1 x 0.05 = 5000 (hand arithmetic)
    ctx = QueryContext(chain3_query, chain3_catalog, default_cost)
    assert ctx.cardinality(ctx.full_mask) == pytest.approx(5000.0)


def test_cardinality_equals_hand_product(rng, default_cost):
    """For every relation set of random queries, the context's cardinality
    and log sizes equal, bit for bit, the hand product in sorted-name and
    sorted-edge order and the log1p of it and of its volume."""
    for trial in range(20):
        catalog, query = random_tree_catalog_and_query(rng, int(rng.integers(2, 7)))
        ctx = QueryContext(query, catalog, default_cost)
        for mask in range(1, ctx.full_mask + 1):
            names = [r for r in query.relations if mask & ctx.bit[r]]
            rows = hand_cardinality(names, query, catalog)
            widths = [catalog.table(r).row_width_bytes for r in sorted(names)]
            assert ctx.cardinality(mask) == rows
            assert ctx.log_size(mask) == (
                math.log1p(rows),
                math.log1p(rows * (sum(widths) / len(widths))),
            )


def test_plan_with_unknown_relation_is_rejected(pair_catalog, pair_query, default_cost):
    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    with pytest.raises(SimulatorError, match="'x' is not part of query 'pair'"):
        ctx.cost(Join(Scan("r"), Scan("x"), JoinOp.HASH))


# --- plan cost ---------------------------------------------------------------

def test_scan_cost_charges_unfiltered_rows(unit_cost):
    """Scans read every base row; the filter applies to the output, so a 50%
    filter halves downstream cardinalities but not the scan itself."""
    catalog = make_catalog(
        [("r", 100, 16, 0.5), ("s", 200, 16, 1.0)], {("r", "s"): 0.01}
    )
    query = make_query("pair", ["r", "s"], [("r", "s")])
    plan = Join(Scan("r"), Scan("s"), JoinOp.HASH)
    # scans 100 + 200; |left| = 50, |right| = 200, |out| = 100
    expected = 300.0 + 50.0 + (50.0 + 200.0 + 100.0)
    assert QueryContext(query, catalog, unit_cost).cost(plan) == pytest.approx(expected)


def test_hash_join_cost_hand_value(pair_catalog, pair_query, unit_cost):
    # scans 100 + 200, build 100, cpu (100 + 200 + 200) -> 900
    plan = Join(Scan("r"), Scan("s"), JoinOp.HASH)
    assert QueryContext(pair_query, pair_catalog, unit_cost).cost(plan) == pytest.approx(900.0)


def test_zero_coefficients_zero_cost(pair_catalog, pair_query):
    cfg = CostModelConfig(
        cpu_cost_per_row=0,
        hash_build_cost_per_row=0,
        nlj_cost_per_row_pair=0,
        merge_sort_cost_per_row_log_row=0,
        scan_cost_per_row=0,
        latency_per_cost_unit=1.0,
        noise_rel_sigma=0.0,
    )
    for op in JoinOp:
        plan = Join(Scan("r"), Scan("s"), op)
        assert QueryContext(pair_query, pair_catalog, cfg).cost(plan) == 0.0


def test_nlj_and_merge_cost_formulas(pair_catalog, pair_query, unit_cost):
    nlj = Join(Scan("r"), Scan("s"), JoinOp.NESTED_LOOP)
    assert QueryContext(pair_query, pair_catalog, unit_cost).cost(nlj) == pytest.approx(
        300.0 + 100.0 * 200.0
    )
    merge = Join(Scan("r"), Scan("s"), JoinOp.MERGE)
    expected = (
        300.0
        + 100.0 * math.log2(101.0)
        + 200.0 * math.log2(201.0)
        + 200.0
    )
    assert QueryContext(pair_query, pair_catalog, unit_cost).cost(merge) == pytest.approx(expected)


def test_join_cost_increments_equal_per_operator_formulas(rng):
    """The three increments equal, bit for bit, each operator's formula
    written out on its own, on random rows that include 0, 1 and values
    above 1e12, under the default and random coefficients."""
    rows = [0.0, 1.0, 2.5e12, 7.0e15, *(10 ** rng.uniform(-2, 14, size=12))]
    configs = [CostModelConfig()] + [
        CostModelConfig(
            cpu_cost_per_row=float(rng.uniform(0, 2)),
            hash_build_cost_per_row=float(rng.uniform(0, 2)),
            nlj_cost_per_row_pair=float(rng.uniform(0, 0.01)),
            merge_sort_cost_per_row_log_row=float(rng.uniform(0, 1)),
        )
        for _ in range(3)
    ]
    for cfg in configs:
        for left in rows:
            for right in rows:
                for out in rows[:6]:
                    hash_join = cfg.hash_build_cost_per_row * left + cfg.cpu_cost_per_row * (
                        left + right + out
                    )
                    sort = cfg.merge_sort_cost_per_row_log_row * (
                        left * math.log2(1.0 + left) + right * math.log2(1.0 + right)
                    )
                    merge = sort + cfg.cpu_cost_per_row * out
                    nested_loop = cfg.nlj_cost_per_row_pair * left * right
                    got = join_cost_increments(left, right, out, cfg)
                    assert [x.hex() for x in got] == [
                        hash_join.hex(), merge.hex(), nested_loop.hex()
                    ]


def test_plan_query_mismatch(chain3_catalog, chain3_query, unit_cost):
    partial = Join(Scan("a"), Scan("b"), JoinOp.HASH)
    with pytest.raises(SimulatorError, match="covers"):
        QueryContext(chain3_query, chain3_catalog, unit_cost).cost(partial)


def test_plan_cost_monotone_in_coefficients(rng):
    """Doubling any one coefficient never decreases any plan's cost."""
    fields = (
        "cpu_cost_per_row",
        "hash_build_cost_per_row",
        "nlj_cost_per_row_pair",
        "merge_sort_cost_per_row_log_row",
        "scan_cost_per_row",
    )
    import dataclasses

    for trial in range(10):
        catalog, query = random_tree_catalog_and_query(rng, int(rng.integers(2, 5)))
        base = CostModelConfig(noise_rel_sigma=0.0)
        plans = list(enumerate_plans(query))[:50]
        for name in fields:
            doubled = dataclasses.replace(base, **{name: getattr(base, name) * 2})
            for plan in plans:
                assert QueryContext(query, catalog, doubled).cost(plan) >= QueryContext(
                    query, catalog, base
                ).cost(plan)


# --- search successors --------------------------------------------------------

def fragment_fields(info):
    """A fragment's fields, floats by their bits; its operator counts must
    be a tuple of ints."""
    assert type(info.op_counts) is tuple
    assert all(type(count) is int for count in info.op_counts)
    assert type(info.rows) is float and type(info.cost) is float
    return info.node, info.mask, info.rows.hex(), info.cost.hex(), info.depth, info.op_counts


@pytest.mark.parametrize("left_deep", [False, True])
def test_successor_from_columns_equals_join_info(rng, default_cost, left_deep):
    """On random partial plans of random tree queries (2-8 relations), the
    successor that plan search reads from a step's columns equals, for every
    legal pair and every operator, ``join_info`` of the pair field by field,
    and its next partial plan is the untouched fragments and the join,
    ordered by lowest relation bit."""
    checked = 0
    for _ in range(16):
        catalog, query = random_tree_catalog_and_query(rng, int(rng.integers(2, 9)))
        ctx = QueryContext(query, catalog, default_cost)
        state = ctx.scans
        while len(state) > 1:
            pairs = legal_pairs(state, ctx, left_deep)
            columns = join_columns([(state[i], state[j]) for i, j in pairs], ctx)
            moves = [(i, j, op) for i, j in pairs for op in JOIN_OPS]
            for k, (i, j, op) in enumerate(moves):
                joined, infos = columns.joined(state, k, i, j)
                expected = join_info(state[i], state[j], op, ctx)
                assert fragment_fields(joined) == fragment_fields(expected)
                untouched = [f for n, f in enumerate(state) if n not in (i, j)]
                assert infos == tuple(
                    sorted(untouched + [expected], key=lambda f: f.mask & -f.mask)
                )
                checked += 1
            k = int(rng.integers(len(moves)))
            _, state = columns.joined(state, k, *moves[k][:2])
    assert checked > 200


# --- execute -----------------------------------------------------------------

def test_execute_noiseless_equals_cost_times_unit(pair_catalog, pair_query):
    cfg = CostModelConfig(noise_rel_sigma=0.0)
    plan = Join(Scan("r"), Scan("s"), JoinOp.HASH)
    ctx = QueryContext(pair_query, pair_catalog, cfg)
    expected = ctx.cost(plan) * cfg.latency_per_cost_unit
    assert execute(ctx.cost(plan), cfg, rng_seed=7) == expected
    assert noiseless_latency(plan, pair_query, pair_catalog, cfg) == expected


def test_execute_deterministic_per_seed(pair_catalog, pair_query, default_cost):
    plan = Join(Scan("r"), Scan("s"), JoinOp.HASH)
    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    cost = ctx.cost(plan)
    a = execute(cost, default_cost, rng_seed=42)
    b = execute(cost, default_cost, rng_seed=42)
    c = execute(cost, default_cost, rng_seed=43)
    assert a == b
    assert a != c


def test_execute_noise_statistics(pair_catalog, pair_query):
    """Statistical oracle: over 1e4 seeds, sample std/mean within [0.04, 0.06]
    for sigma = 0.05."""
    cfg = CostModelConfig(noise_rel_sigma=0.05)
    plan = Join(Scan("r"), Scan("s"), JoinOp.HASH)
    ctx = QueryContext(pair_query, pair_catalog, cfg)
    draws = np.array([execute(ctx.cost(plan), cfg, rng_seed=s) for s in range(10_000)])
    ratio = draws.std(ddof=1) / draws.mean()
    assert 0.04 <= ratio <= 0.06


def test_execute_floor_prevents_nonpositive(pair_catalog, pair_query):
    cfg = CostModelConfig(noise_rel_sigma=5.0)  # many draws below -1
    plan = Join(Scan("r"), Scan("s"), JoinOp.HASH)
    base = noiseless_latency(plan, pair_query, pair_catalog, cfg)
    ctx = QueryContext(pair_query, pair_catalog, cfg)
    lats = [execute(ctx.cost(plan), cfg, rng_seed=s) for s in range(200)]
    assert min(lats) >= 0.01 * base > 0


# --- expert plan -------------------------------------------------------------

def test_expert_two_relations_exhaustive(pair_catalog, pair_query, default_cost):
    plan = expert_plan(QueryContext(pair_query, pair_catalog, default_cost))
    best = brute_force_min_cost(pair_query, pair_catalog, default_cost)
    assert QueryContext(pair_query, pair_catalog, default_cost).cost(plan) == pytest.approx(best)


def test_expert_four_relation_chain_matches_brute_force(default_cost):
    catalog = make_catalog(
        [("a", 1000, 8, 1.0), ("b", 50, 8, 1.0), ("c", 2000, 8, 0.5), ("d", 10, 8, 1.0)],
        {("a", "b"): 0.01, ("b", "c"): 0.002, ("c", "d"): 0.3},
    )
    query = make_query("c4", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    plan = expert_plan(QueryContext(query, catalog, default_cost))
    got = QueryContext(query, catalog, default_cost).cost(plan)
    assert got == pytest.approx(brute_force_min_cost(query, catalog, default_cost))


def test_expert_matches_brute_force_random(rng, default_cost):
    for trial in range(25):
        catalog, query = random_tree_catalog_and_query(rng, int(rng.integers(2, 6)))
        plan = expert_plan(QueryContext(query, catalog, default_cost))
        got = QueryContext(query, catalog, default_cost).cost(plan)
        best = brute_force_min_cost(query, catalog, default_cost)
        assert got == pytest.approx(best, rel=1e-12)


# Only scans are charged, so every join of a relation set costs the same: a
# full tie that the names and the operator rank must break.
SCAN_ONLY_COST = CostModelConfig(
    cpu_cost_per_row=0,
    hash_build_cost_per_row=0,
    nlj_cost_per_row_pair=0,
    merge_sort_cost_per_row_log_row=0,
    scan_cost_per_row=1.0,
    latency_per_cost_unit=1.0,
    noise_rel_sigma=0.0,
)


def test_expert_tie_break_deterministic(pair_catalog, pair_query):
    first = expert_plan(QueryContext(pair_query, pair_catalog, SCAN_ONLY_COST))
    second = expert_plan(QueryContext(pair_query, pair_catalog, SCAN_ONLY_COST))
    assert first == second
    assert first == Join(Scan("r"), Scan("s"), JoinOp.HASH)


def test_names_before_agrees_with_sorted_name_tuples(default_cost):
    """For every pair of non-empty relation sets of a 6-relation query, the
    mask comparison the DP breaks ties with agrees with comparing the sets'
    sorted name tuples."""
    names = ["a", "ab", "b", "ba", "c", "d"]
    query = make_query("six", names, list(zip(names, names[1:])))
    catalog = make_catalog([(name, 10, 8, 1.0) for name in names])
    ctx = QueryContext(query, catalog, default_cost)
    for a in range(1, ctx.full_mask + 1):
        for b in range(1, ctx.full_mask + 1):
            assert _names_before(a, b) == (ctx.names(a) < ctx.names(b)), (a, b)


def test_expert_plan_equals_subset_dp(rng, default_cost):
    """The pair-enumerating DP returns the submask scan's plan, child order
    and operators included: on random trees, trees with extra edges and
    dense graphs of 2-12 relations (dense ones up to 9) under the default
    and the scan-only cost models, and on every bundled query."""
    cases = []
    for n in range(2, DEFAULT_DP_LIMIT + 1):
        catalog, query = random_tree_catalog_and_query(rng, n, qid=f"tree{n}")
        cases.append((catalog, query))
        cases.append(with_extra_edges(rng, catalog, query, n // 2))
        if n <= 9:
            cases.append(with_extra_edges(rng, catalog, query, n * (n - 1) // 2))
    for catalog, query in cases:
        for cfg in (default_cost, SCAN_ONLY_COST):
            plan = expert_plan(QueryContext(query, catalog, cfg))
            assert plan == subset_dp_plan(query, catalog, cfg), query
    for workload in ("data/star6", "perfbench/workloads/chain8", "perfbench/workloads/snowflake12"):
        catalog = load_catalog(ROOT / workload / "catalog.json")
        for split in ("train.json", "test.json"):
            for query in load_workload(ROOT / workload / split, catalog):
                assert expert_plan(QueryContext(query, catalog, default_cost)) == subset_dp_plan(
                    query, catalog, default_cost
                ), (workload, query.id)


def test_expert_dp_limit(rng, default_cost):
    """The DP refuses a query above DEFAULT_DP_LIMIT (12) relations."""
    catalog, query = random_tree_catalog_and_query(rng, DEFAULT_DP_LIMIT + 1)
    with pytest.raises(SimulatorError, match="above the DP limit 12"):
        expert_plan(QueryContext(query, catalog, default_cost))


def test_expert_covers_query(rng, default_cost):
    catalog, query = random_tree_catalog_and_query(rng, 6)
    plan = expert_plan(QueryContext(query, catalog, default_cost))
    ctx = QueryContext(query, catalog, default_cost)
    assert plan_infos(plan, ctx)[-1].mask == ctx.full_mask


# --- expert baseline ----------------------------------------------------------

def test_baseline_noiseless_zero_tolerance(pair_catalog, pair_query):
    cfg = CostModelConfig(noise_rel_sigma=0.0)
    baseline = expert_baseline(QueryContext(pair_query, pair_catalog, cfg), n_runs=10)
    assert baseline.tolerance_ms == 0.0


def test_baseline_deterministic(pair_catalog, pair_query, default_cost):
    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    a = expert_baseline(ctx, n_runs=10, base_seed=5)
    b = expert_baseline(QueryContext(pair_query, pair_catalog, default_cost), n_runs=10, base_seed=5)
    assert a == b
    # The executions are the expert plan's, seeded base_seed + i.
    plan = expert_plan(QueryContext(pair_query, pair_catalog, default_cost))
    runs = [execute(ctx.cost(plan), default_cost, 5 + i) for i in range(10)]
    assert a.mean_latency_ms == float(np.mean(runs))
    assert a.noiseless_latency_ms == ctx.latency(plan)


def test_baseline_tolerance_tracks_sigma(pair_catalog, pair_query):
    """Statistical oracle: averaged over many baselines, tolerance/mean is
    close to 2 x sigma."""
    cfg = CostModelConfig(noise_rel_sigma=0.05)
    ctx = QueryContext(pair_query, pair_catalog, cfg)
    ratios = []
    for base_seed in range(0, 4000, 20):
        b = expert_baseline(ctx, n_runs=10, base_seed=base_seed)
        ratios.append(b.tolerance_ms / b.mean_latency_ms)
    mean_ratio = float(np.mean(ratios))
    # E[sample std] of a normal with n=10 is ~0.9727 sigma.
    assert 0.08 <= mean_ratio <= 0.12
