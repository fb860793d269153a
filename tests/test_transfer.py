import math

import numpy as np
import pytest

from joinopt.model import ModelParams, init_params
from joinopt.transfer import (
    PartitioningPolicy,
    TaskSet,
    TransferError,
    davies_bouldin,
    halstead_complexity,
    maml_outer,
    partition_workload,
    policy_score,
    query_embeddings,
    score_all_policies,
    select_partitioning,
)

from joinopt import simulator
from joinopt.simulator import CostModelConfig, QueryContext

from conftest import batch_loss, gradient, make_catalog, make_query, stepped

# A two-table catalog for queries whose scores read only their tokens.
AB_CATALOG = make_catalog([("a", 100, 16, 1.0), ("b", 100, 16, 1.0)])


# --- independent DBI oracle ----------------------------------------------------

def dbi_oracle(groups):
    """Hand implementation over lists of plain vectors."""
    centroids = [np.mean(g, axis=0) for g in groups]
    sigmas = [
        np.mean([np.linalg.norm(np.asarray(x) - c) for x in g])
        for g, c in zip(groups, centroids)
    ]
    k = len(groups)
    total = 0.0
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i != j:
                d = max(1e-9, np.linalg.norm(centroids[i] - centroids[j]))
                worst = max(worst, (sigmas[i] + sigmas[j]) / d)
        total += worst
    return total / k


def groups_to_args(groups):
    tasks = []
    embeddings = {}
    n = 0
    for g in groups:
        ids = []
        for point in g:
            qid = f"q{n}"
            embeddings[qid] = np.asarray(point, dtype=float)
            ids.append(qid)
            n += 1
        tasks.append(tuple(ids))
    return TaskSet(tuple(tasks), PartitioningPolicy.HALSTEAD), embeddings


# --- halstead -------------------------------------------------------------------

def test_halstead_simple():
    # eta1 = 2, eta2 = 2, N = 2 -> 1 * 1 * log2(4) = 2
    q = make_query(
        "h1", ["a", "b"], [("a", "b")],
        operators={"SELECT": 1, "FROM": 1},
        operands={"a": 1, "b": 1},
    )
    assert halstead_complexity(q) == pytest.approx(2.0)


def test_halstead_published_example():
    """SELECT MIN(t.title) FROM title AS t: operators {SELECT, MIN, FROM},
    operand occurrences {t: 2, title: 2} -> 1.5 * 2 * log2(5)."""
    q = make_query(
        "h2", ["a", "b"], [("a", "b")],
        operators={"SELECT": 1, "MIN": 1, "FROM": 1},
        operands={"t": 2, "title": 2},
    )
    assert halstead_complexity(q) == pytest.approx(1.5 * 2.0 * math.log2(5), rel=1e-9)
    assert halstead_complexity(q) == pytest.approx(6.9657842847, rel=1e-6)


def test_halstead_linear_in_occurrences():
    base = make_query(
        "h3", ["a", "b"], [("a", "b")],
        operators={"SELECT": 1, "JOIN": 2},
        operands={"a": 1, "b": 3},
    )
    doubled = make_query(
        "h4", ["a", "b"], [("a", "b")],
        operators={"SELECT": 1, "JOIN": 2},
        operands={"a": 2, "b": 6},
    )
    assert halstead_complexity(doubled) == pytest.approx(2 * halstead_complexity(base))


# --- policy scores ----------------------------------------------------------------

def test_operator_count_of_published_example(default_cost):
    q = make_query(
        "p1", ["a", "b"], [("a", "b")],
        operators={"SELECT": 1, "MIN": 1, "FROM": 1},
        operands={"t": 2, "title": 2},
    )
    ctx = QueryContext(q, AB_CATALOG, default_cost)
    assert policy_score(ctx, PartitioningPolicy.OPERATOR_COUNT) == 3.0


def test_estimated_rows_score(pair_catalog, pair_query, default_cost):
    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    score = policy_score(ctx, PartitioningPolicy.ESTIMATED_ROWS)
    assert score == pytest.approx(200.0)


def test_estimated_cost_consistency(pair_catalog, pair_query, default_cost):
    from joinopt.simulator import expert_plan

    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    score = policy_score(ctx, PartitioningPolicy.ESTIMATED_COST)
    expected = QueryContext(pair_query, pair_catalog, default_cost).cost(
        expert_plan(pair_query, pair_catalog, default_cost)
    )
    assert score == expected


# --- partitioning -----------------------------------------------------------------

def _scored_workload(scores):
    """Query contexts over ``AB_CATALOG`` whose operator-count score equals
    the given value."""
    queries = []
    for i, score in enumerate(scores):
        query = make_query(
            f"q{i}",
            ["a", "b"],
            [("a", "b")],
            operators={"OP": int(score)},
            operands={"a": 1, "b": 1},
        )
        queries.append(QueryContext(query, AB_CATALOG, CostModelConfig()))
    return queries


def test_partition_sorted_chunks(default_cost):
    workload = _scored_workload([5, 1, 3, 2, 6, 4])
    ts = partition_workload(workload, PartitioningPolicy.OPERATOR_COUNT, 3)
    # ascending by score: q1(1), q3(2), q2(3), q5(4), q0(5), q4(6)
    assert ts.tasks == (("q1", "q3"), ("q2", "q5"), ("q0", "q4"))


def test_partition_remainder_goes_last(default_cost):
    workload = _scored_workload([1, 2, 3, 4, 5, 6, 7])
    ts = partition_workload(workload, PartitioningPolicy.OPERATOR_COUNT, 3)
    assert tuple(len(t) for t in ts.tasks) == (2, 2, 3)


def test_partition_tie_break_by_id(default_cost):
    workload = _scored_workload([2, 2, 2, 2])
    ts = partition_workload(workload, PartitioningPolicy.OPERATOR_COUNT, 2)
    assert ts.tasks == (("q0", "q1"), ("q2", "q3"))


def test_partition_validates_sizes(default_cost):
    workload = _scored_workload([1, 2])
    with pytest.raises(TransferError):
        partition_workload(workload, PartitioningPolicy.OPERATOR_COUNT, 3)


def test_too_many_tasks_fail_before_any_expert_dp(chain3_catalog, default_cost, monkeypatch):
    """A ``k_tasks`` above the number of queries is refused by the first
    policy's partition, before the embeddings run any query's expert DP."""
    calls = []
    monkeypatch.setattr(simulator, "expert_plan", lambda *args: calls.append(args))
    workload = [
        QueryContext(make_query(f"q{i}", ["a", "b", "c"], [("a", "b"), ("b", "c")]),
                     chain3_catalog, default_cost)
        for i in range(3)
    ]
    with pytest.raises(TransferError, match="^workload of 3 queries cannot fill 4 tasks$"):
        score_all_policies(workload, 4)
    assert calls == []


def test_partition_invariants_random(rng, default_cost):
    for _ in range(20):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(2, min(6, n) + 1))
        workload = _scored_workload(rng.integers(1, 100, size=n))
        ts = partition_workload(workload, PartitioningPolicy.OPERATOR_COUNT, k)
        ids = [q for task in ts.tasks for q in task]
        assert len(ids) == len(set(ids)) == n
        assert all(len(t) == n // k for t in ts.tasks[:-1])
        assert len(ts.tasks[-1]) == n // k + n % k


def test_partition_stable_under_monotone_transform(default_cost):
    """Any strictly increasing transform of scores keeps the partition."""
    scores = [3, 9, 1, 7, 5, 2, 8]
    base = partition_workload(
        _scored_workload(scores), PartitioningPolicy.OPERATOR_COUNT, 3
    )
    transformed = partition_workload(
        _scored_workload([s * 7 + 2 for s in scores]),
        PartitioningPolicy.OPERATOR_COUNT,
        3,
    )
    assert base.tasks == transformed.tasks


# --- DBI --------------------------------------------------------------------------

def test_dbi_singletons_zero():
    tasks, emb = groups_to_args([[[0.0, 0.0]], [[3.0, 4.0]]])
    assert davies_bouldin(tasks, emb) == 0.0


def test_dbi_hand_value_on_line():
    # A = {0, 2}, B = {10, 12}: sigma = 1 each, centroids 1 and 11 -> 0.2
    tasks, emb = groups_to_args([[[0.0], [2.0]], [[10.0], [12.0]]])
    assert davies_bouldin(tasks, emb) == pytest.approx(0.2, rel=1e-12)


def test_dbi_epsilon_guard():
    tasks, emb = groups_to_args([[[1.0], [3.0]], [[1.0], [3.0]]])  # same centroid
    got = davies_bouldin(tasks, emb)
    assert math.isfinite(got)
    assert got == pytest.approx(2.0 / 1e-9)


def test_dbi_matches_oracle_random(rng):
    for _ in range(10):
        k = int(rng.integers(2, 5))
        groups = [
            [rng.normal(size=3) + 5 * g for _ in range(int(rng.integers(1, 6)))]
            for g in range(k)
        ]
        tasks, emb = groups_to_args(groups)
        assert davies_bouldin(tasks, emb) == pytest.approx(dbi_oracle(groups), rel=1e-9)


def test_dbi_relabeling_invariant(rng):
    groups = [[rng.normal(size=2) for _ in range(3)] for _ in range(3)]
    tasks, emb = groups_to_args(groups)
    shuffled = TaskSet(tuple(reversed(tasks.tasks)), tasks.policy)
    assert davies_bouldin(tasks, emb) == pytest.approx(davies_bouldin(shuffled, emb))


def test_dbi_decreases_with_separation():
    previous = math.inf
    for gap in (2.0, 5.0, 10.0, 50.0):
        tasks, emb = groups_to_args([[[0.0], [1.0]], [[gap], [gap + 1.0]]])
        got = davies_bouldin(tasks, emb)
        assert got < previous
        previous = got


# --- policy selection ----------------------------------------------------------------

def _banded_rows_workload():
    """Halstead and operator counts constant; estimated rows split into two
    well-separated bands, so the rows policy partitions best."""
    catalog = make_catalog(
        [("a", 10, 8, 1.0), ("b", 10, 8, 1.0), ("c", 1_000_000, 8, 1.0), ("d", 900_000, 8, 1.0)],
        {("a", "b"): 0.5, ("c", "d"): 0.5, ("b", "c"): 0.5, ("a", "c"): 0.5, ("a", "d"): 0.5},
    )
    queries = []
    tokens = dict(operators={"SELECT": 1, "FROM": 1, "JOIN": 1}, operands={"x": 1, "y": 1})
    small = [("a", "b")], ["a", "b"]
    big = [("c", "d")], ["c", "d"]
    for i in range(4):
        edges, rels = small if i % 2 == 0 else big
        queries.append(make_query(f"q{i}", rels, edges, **tokens))
    return catalog, queries


def test_select_partitioning_prefers_separating_policy(default_cost):
    catalog, workload = _banded_rows_workload()
    contexts = [QueryContext(q, catalog, default_cost) for q in workload]
    best = select_partitioning(contexts, 2)
    scored = score_all_policies(contexts, 2)
    by_policy = {ts.policy: ts.dbi_score for ts in scored}
    assert best.policy in (PartitioningPolicy.ESTIMATED_COST, PartitioningPolicy.ESTIMATED_ROWS)
    assert by_policy[best.policy] < by_policy[PartitioningPolicy.HALSTEAD]
    rows_tasks = next(ts for ts in scored if ts.policy is PartitioningPolicy.ESTIMATED_ROWS)
    assert sorted(rows_tasks.tasks[0]) == ["q0", "q2"]
    assert sorted(rows_tasks.tasks[1]) == ["q1", "q3"]


def test_select_partitioning_tie_break_enum_order(default_cost):
    """All-identical queries: every policy yields the same grouping, so the
    first policy in enum order is returned."""
    catalog = make_catalog(
        [("a", 10, 8, 1.0), ("b", 20, 8, 1.0)], {("a", "b"): 0.5}
    )
    workload = [
        make_query(
            f"q{i}", ["a", "b"], [("a", "b")],
            operators={"SELECT": 1}, operands={"a": 1},
        )
        for i in range(4)
    ]
    best = select_partitioning([QueryContext(q, catalog, default_cost) for q in workload], 2)
    assert best.policy is PartitioningPolicy.HALSTEAD


def test_select_partitioning_dbi_consistency(default_cost):
    catalog, workload = _banded_rows_workload()
    contexts = [QueryContext(q, catalog, default_cost) for q in workload]
    best = select_partitioning(contexts, 2)
    emb = query_embeddings(contexts)
    assert best.dbi_score == pytest.approx(davies_bouldin(best, emb))


def test_select_partitioning_is_argmin(rng, default_cost):
    from conftest import random_tree_catalog_and_query

    for trial in range(5):
        catalog, _ = random_tree_catalog_and_query(rng, 4)
        names = catalog.table_names
        workload = []
        for i in range(int(rng.integers(6, 12))):
            ops = {"SELECT": 1, "JOIN": int(rng.integers(1, 5))}
            operands = {names[0]: int(rng.integers(1, 6)), "col": int(rng.integers(1, 4))}
            edge = tuple(sorted(rng.choice(len(names), size=2, replace=False)))
            a, b = names[edge[0]], names[edge[1]]
            if (a, b) not in catalog.join_selectivities and (b, a) not in catalog.join_selectivities:
                a, b = sorted(catalog.join_selectivities)[0] if catalog.join_selectivities else (names[0], names[1])
            workload.append(make_query(f"q{i}", [a, b], [(a, b)], operators=ops, operands=operands))
        k = int(rng.integers(2, 4))
        contexts = [QueryContext(q, catalog, default_cost) for q in workload]
        best = select_partitioning(contexts, k)
        scored = score_all_policies(contexts, k)
        assert best.dbi_score <= min(ts.dbi_score for ts in scored) + 1e-15


# --- MAML -----------------------------------------------------------------------

def _quadratic_task(rng, n=32):
    X = rng.uniform(0, 1, size=(n, 1))
    y = 2.0 * X[:, 0] + 1.0
    return X, y


def test_maml_outer_one_inner_step_equals_sgd(rng):
    """One task whose batches take every row, one inner and one outer step:
    the outer step is taken on the gradient at the SGD-adapted parameters."""
    params = init_params((1, 4, 1), 3)
    batch = _quadratic_task(rng)
    out = maml_outer(params, [batch], 0.01, 0.02, n_inner=1, n_outer=1, batch_size=999)
    adapted = stepped(params, gradient(params, *batch), 0.01)
    direct = stepped(params, gradient(adapted, *batch), 0.02)
    np.testing.assert_allclose(out.vector, direct.vector, rtol=0, atol=1e-12)


def test_maml_outer_zero_inner_lr_skips_adaptation(rng):
    """Inner steps of size 0 leave the adapted parameters where they
    started, so any number of them gives the result of none."""
    params = init_params((1, 4, 1), 3)
    tasks = [_quadratic_task(rng) for _ in range(2)]
    adapted = maml_outer(params, tasks, 0.0, 0.02, 5, 3, batch_size=8, rng_seed=2)
    plain = maml_outer(params, tasks, 0.0, 0.02, 0, 3, batch_size=8, rng_seed=2)
    assert np.array_equal(adapted.vector, plain.vector)


def test_maml_outer_scalar_hand_trace():
    """Scalar model, L = (theta - 1)^2, alpha = 0.1, one task of one row and
    one outer step of 0.1: the inner steps go 0 -> 0.2 -> 0.36, and the
    outer step from 0 takes the gradient at the adapted value,
    2 (0.2 - 1) = -1.6 after one inner step and 2 (0.36 - 1) = -1.28 after
    two."""
    params = ModelParams((1, 1), np.array([0.0, 0.0]))
    # With input 0, prediction = bias; loss = (bias - 1)^2.
    batch = (np.array([[0.0]]), np.array([1.0]))
    one = maml_outer(params, [batch], inner_lr=0.1, outer_lr=0.1, n_inner=1, n_outer=1)
    assert one.biases[0][0] == pytest.approx(0.16)
    two = maml_outer(params, [batch], inner_lr=0.1, outer_lr=0.1, n_inner=2, n_outer=1)
    assert two.biases[0][0] == pytest.approx(0.128)


def test_maml_outer_leaves_input_unchanged(rng):
    """MAML writes neither its parameters nor its tasks, and returns a value
    that shares no memory with the input."""
    params = init_params((1, 4, 1), 3)
    tasks = [_quadratic_task(rng) for _ in range(2)]
    arrays = [params.vector, *params.weights, *params.biases]
    arrays += [a for task in tasks for a in task]
    snapshot = [a.copy() for a in arrays]
    outer = maml_outer(params, tasks, 0.05, 0.02, 3, 4, batch_size=8, rng_seed=1)
    unchanged = maml_outer(params, tasks, 0.05, 0.02, 3, 0)
    for a, b in zip(arrays, snapshot):
        assert a.tobytes() == b.tobytes()
    for out in (outer, unchanged):
        assert not np.shares_memory(out.vector, params.vector)


def test_maml_outer_no_inner_is_plain_sgd(rng):
    """One task, n_inner = 0: one outer iteration equals one SGD step of size
    outer_lr on the task gradient at the initial parameters."""
    params = init_params((1, 4, 1), 5)
    batch = _quadratic_task(rng, n=16)
    out = maml_outer(
        params, [batch], inner_lr=0.1, outer_lr=0.02, n_inner=0, n_outer=1,
        batch_size=999, rng_seed=0,
    )
    direct = stepped(params, gradient(params, *batch), 0.02)
    for a, b in zip(out.weights, direct.weights):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_maml_outer_zero_lr_identity(rng):
    params = init_params((1, 4, 1), 5)
    task = _quadratic_task(rng)
    out = maml_outer(params, [task], 0.05, 0.0, 2, 10, rng_seed=4)
    for a, b in zip(out.weights, params.weights):
        assert np.array_equal(a, b)


def test_maml_outer_deterministic(rng):
    params = init_params((1, 8, 1), 5)
    tasks = [_quadratic_task(rng) for _ in range(3)]
    a = maml_outer(params, tasks, 0.01, 0.005, 2, 5, rng_seed=11)
    b = maml_outer(params, tasks, 0.01, 0.005, 2, 5, rng_seed=11)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


# --- MAML bit for bit against the earlier loop ------------------------------------

def reference_maml_inner(params, batch, inner_lr, n_inner):
    """The earlier inner loop, kept as the reference: one gradient and one
    step per step, each into new arrays."""
    for _ in range(n_inner):
        params = stepped(params, gradient(params, *batch), inner_lr)
    return params


def reference_maml_outer(params, tasks, inner_lr, outer_lr, n_inner, n_outer, batch_size, rng_seed):
    """The earlier outer loop: samples as new (features, labels) pairs, and
    the task gradients summed left to right from 0 with ``sum``."""
    rng = np.random.default_rng(rng_seed)

    def sample(task):
        features, labels = task
        idx = rng.choice(len(labels), size=min(batch_size, len(labels)), replace=False)
        return features[idx], labels[idx]

    for _ in range(n_outer):
        grads = []
        for task in tasks:
            support = sample(task)
            query_batch = sample(task)
            adapted = reference_maml_inner(params, support, inner_lr, n_inner)
            grads.append(gradient(adapted, *query_batch))
        summed = ModelParams(params.layer_sizes, sum(g.vector for g in grads))
        params = stepped(params, summed, outer_lr)
    return params


def assert_same_bits(got, want):
    assert got.layer_sizes == want.layer_sizes
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "sizes, rows, batch_size",
    [
        ((16, 64, 64, 1), (15, 20, 35, 95), 64),  # star6's meta tasks' sizes
        ((1, 1), (7, 12), 5),
        ((5, 7, 3, 1), (9, 30, 4), 8),
    ],
)
def test_maml_matches_the_earlier_loop_bit_for_bit(sizes, rows, batch_size):
    rng = np.random.default_rng(len(sizes) * 100 + sum(rows))
    params = init_params(sizes, 3)
    tasks = [
        (rng.normal(size=(n, sizes[0])) * 2, rng.normal(size=n) + 3) for n in rows
    ]
    got = maml_outer(params, tasks, 0.01, 0.005, 3, 6, batch_size=batch_size, rng_seed=9)
    want = reference_maml_outer(params, tasks, 0.01, 0.005, 3, 6, batch_size, 9)
    assert_same_bits(got, want)
    assert got.vector.tobytes() != params.vector.tobytes()


def linear_task_family(rng, n_tasks, n_points=24):
    """y = a x + b with task-specific a, b; x in [0, 1]."""
    tasks = []
    for _ in range(n_tasks):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        X = rng.uniform(0, 1, size=(n_points, 1))
        tasks.append((X, a * X[:, 0] + b))
    return tasks


def adaptation_steps(params, batch, lr, threshold, max_steps=400):
    for step in range(max_steps + 1):
        if batch_loss(params, *batch) <= threshold:
            return step
        params = stepped(params, gradient(params, *batch), lr)
    return max_steps + 1


def test_maml_meta_init_adapts_faster():
    """Directional check on the linear family: meta-init reaches the loss
    threshold in far fewer adaptation steps than random init (median over
    seeds).  The acceptance suite runs the full 20-seed version."""
    meta_wins = []
    for seed in range(6):
        rng = np.random.default_rng(1000 + seed)
        train_tasks = linear_task_family(rng, 8)
        held_out = linear_task_family(rng, 1)[0]
        params = init_params((1, 16, 1), seed)
        meta = maml_outer(params, train_tasks, 0.05, 0.02, 3, 120, batch_size=24, rng_seed=seed)
        s_meta = adaptation_steps(meta, held_out, 0.05, 0.05)
        s_rand = adaptation_steps(params, held_out, 0.05, 0.05)
        meta_wins.append((s_meta, s_rand))
    med_meta = float(np.median([m for m, _ in meta_wins]))
    med_rand = float(np.median([r for _, r in meta_wins]))
    assert med_meta < med_rand
