import csv
import dataclasses
import gc
import io
import json
import math
import warnings
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from joinopt.catalog import load_catalog, load_workload
from joinopt.model import ModelError, ModelParams, init_params, predict_batch
from joinopt import retention, simulator
from joinopt import trainer as trainer_module
from joinopt import transfer as transfer_module
from joinopt.features import feature_dim, fragment_rows
from joinopt.metrics import classify_query
from joinopt.plans import Join, JoinOp, Scan
from joinopt.simulator import QueryContext, expert_plan, plan_infos
from joinopt.trainer import (
    ConfigError,
    RunConfig,
    SearchConfig,
    build_meta_tasks,
    config_to_doc,
    derive_seed,
    derive_seeds,
    evaluate_queries,
    execute_plans,
    generator_states,
    load_run_config,
    meta_initialize,
    plan_search,
    prepare_run,
    random_rollout,
    run_repetitions,
    read_run_csv,
    run_training,
    search_plans,
    summary_table,
    write_run_csv,
)
from joinopt.transfer import PartitioningPolicy, TaskSet
from joinopt.workload_gen import generate, write_files

from conftest import gradient, make_catalog, make_query, stepped, write_json

BUNDLE = Path(__file__).resolve().parent.parent / "data" / "star6"


@pytest.fixture
def workload_dir(tmp_path):
    write_files(tmp_path, *generate(5, "star", 6, 2, seed=11, max_relations=4))
    return tmp_path


def config_file(tmp_path, **overrides):
    doc = {
        "catalog": "catalog.json",
        "train_workload": "train.json",
        "test_workload": "test.json",
        "iterations": 4,
        "eval_interval": 2,
        "base_seed": 3,
        "repetitions": 2,
        "transfer": {"enabled": False, "n_outer": 5, "k_tasks": 2},
        "search": {"beam_width": 4},
    }
    doc.update(overrides)
    return write_json(tmp_path / "config.json", doc)


# --- config loading -------------------------------------------------------------

def test_load_config_defaults_and_paths(workload_dir):
    cfg = load_run_config(config_file(workload_dir))
    assert cfg.iterations == 4
    assert cfg.retention.k_replay == 256
    assert cfg.retention.beta_mix == 0.5
    assert cfg.retention.alpha_td == 1.0
    assert cfg.model.learning_rate == 1e-3
    assert cfg.transfer.n_inner == 5
    assert cfg.repetitions == 2
    assert cfg.baseline_runs == 10
    assert cfg.catalog_path.endswith("catalog.json")


def test_load_config_rejects_unknown_keys(workload_dir):
    path = config_file(workload_dir, bogus_knob=1)
    with pytest.raises(ConfigError, match="bogus_knob"):
        load_run_config(path)
    path2 = config_file(workload_dir, retention={"nope": True})
    with pytest.raises(ConfigError, match="retention: unknown key 'nope'"):
        load_run_config(path2)
    # dp_limit was never read; the DP limit is simulator.DEFAULT_DP_LIMIT.
    with pytest.raises(ConfigError, match="unknown key 'dp_limit'"):
        load_run_config(config_file(workload_dir, dp_limit=12))


def test_load_config_validates_before_work(workload_dir):
    path = config_file(workload_dir, iterations=-1)
    with pytest.raises(ConfigError, match="iterations"):
        load_run_config(path)
    path2 = config_file(workload_dir, retention={"weighting": "sometimes"})
    with pytest.raises(ConfigError):
        load_run_config(path2)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"iterations": 1.5}, "iterations"),
        ({"iterations": True}, "iterations"),
        ({"catalog": 5}, "catalog"),
        ({"model": {"learning_rate": "0.1"}}, "learning_rate"),
        ({"model": {"hidden_sizes": "64"}}, "hidden_sizes"),
        ({"model": {"hidden_sizes": [64.7, True]}}, "hidden_sizes"),
        ({"model": {"hidden_sizes": [64, 0]}}, "hidden_sizes"),
        ({"model": {"train_passes": 0}}, "train_passes"),
        ({"retention": {"enabled": 1}}, "enabled"),
        ({"retention": {"alpha_td": 0}}, "alpha_td"),
        ({"retention": {"capacity": 0}}, "capacity"),
        ({"retention": {"gamma": -1}}, "gamma"),
        ({"retention": {"gamma": 1.5}}, "gamma"),
        ({"search": {"epsilon_decay": -2}}, "epsilon_decay"),
        ({"search": {"epsilon_decay": 1.5}}, "epsilon_decay"),
        ({"window_fraction": 0}, "window_fraction"),
        ({"window_fraction": 1.5}, "window_fraction"),
        ({"convergence_sustain": 0}, "convergence_sustain"),
        ({"model": {"learning_rate": -1}}, "learning_rate"),
        ({"model": {"learning_rate": 0}}, "learning_rate"),
        ({"transfer": {"inner_lr": 0}}, "inner_lr"),
        ({"transfer": {"outer_lr": -0.1}}, "outer_lr"),
        ({"transfer": {"enabled": False, "k_tasks": 1}}, "k_tasks"),
        ({"transfer": {"n_outer": 0}}, "n_outer"),
        ({"transfer": {"n_inner": -1}}, "n_inner"),
        ({"transfer": {"rollouts_per_query": -1}}, "rollouts_per_query"),
        ({"transfer": {"batch_size": 0}}, "batch_size"),
        ({"transfer": {"enabled": False, "forced_policy": "bogus"}}, "forced_policy"),
        ({"iterations": 0}, "iterations"),
        ({"retention": {"weighting": "recency", "beta_mix": 5.0}}, "retention: beta_mix"),
        ({"retention": {"weighting": "td_low", "beta_mix": -0.5}}, "retention: beta_mix"),
        ({"retention": {"weighting": "hybrid", "beta_mix": 5.0}}, "retention: beta_mix"),
        # JSON's NaN and Infinity are floats, but no number field takes them.
        (
            {"cost_model": {"cpu_cost_per_row": math.nan}},
            "cost_model: 'cpu_cost_per_row' must be a finite number, got NaN",
        ),
        (
            {"cost_model": {"noise_rel_sigma": math.inf}},
            "cost_model: 'noise_rel_sigma' must be a finite number, got Infinity",
        ),
        (
            {"cost_model": {"latency_per_cost_unit": math.inf}},
            "cost_model: 'latency_per_cost_unit' must be a finite number",
        ),
        (
            {"model": {"learning_rate": math.inf}},
            "model: 'learning_rate' must be a finite number",
        ),
        (
            {"retention": {"alpha_td": math.nan}},
            "retention: 'alpha_td' must be a finite number",
        ),
        (
            {"transfer": {"inner_lr": -math.inf}},
            "transfer: 'inner_lr' must be a finite number, got -Infinity",
        ),
        ({"baseline_runs": 1}, "baseline_runs"),
    ],
)
def test_load_config_rejects_bad_type_or_range(workload_dir, overrides, key):
    with pytest.raises(ConfigError, match=key):
        load_run_config(config_file(workload_dir, **overrides))


def test_config_doc_loads_back_to_the_same_config(workload_dir):
    """config.json is the resolved config spelled as the loader reads it."""
    cfg = load_run_config(
        config_file(
            workload_dir,
            model={"hidden_sizes": [8, 4]},
            transfer={"forced_policy": "halstead"},
            cost_model={"noise_rel_sigma": 0.0},
        )
    )
    doc = config_to_doc(cfg)
    assert doc["catalog"] == cfg.catalog_path and "catalog_path" not in doc
    assert doc["model"]["hidden_sizes"] == [8, 4]
    again = write_json(workload_dir / "resolved.json", doc)
    assert load_run_config(again) == cfg


def test_load_config_types(workload_dir):
    cfg = load_run_config(
        config_file(workload_dir, model={"hidden_sizes": [8, 4], "learning_rate": 1})
    )
    assert cfg.model.hidden_sizes == (8, 4)
    assert cfg.model.learning_rate == 1  # a JSON integer is a number


def test_derive_seed_stable():
    assert derive_seed(1, "search", 2, 3) == derive_seed(1, "search", 2, 3)
    assert derive_seed(1, "search", 2, 3) != derive_seed(1, "search", 2, 4)
    assert derive_seed(1, "exec", 2, 3) != derive_seed(1, "search", 2, 3)


def seed_sequence_seed(row) -> int:
    """The reference seed of a row: numpy's SeedSequence over its words, a
    string's crc32 and an integer masked to 32 bits."""
    words = [
        zlib.crc32(part.encode("utf-8")) if isinstance(part, str) else part & 0xFFFFFFFF
        for part in row
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def test_derive_seeds_match_seed_sequence():
    """3 500 seeded rows of each length 1-6 (rows of more than four parts
    run SeedSequence's extra mixing loop): the words 0 and 2**32 - 1, other
    32-bit words, negative and wider integers (masked; among them 2**64 + 5
    and -2**70), the seed tags and other strings, mixed within a column.
    Each row's seed is SeedSequence's, and ``derive_seed`` gives the one-row
    result.  So are the seeds of rows whose columns each hold one kind of
    part, as a training iteration's rows do."""
    rng = np.random.default_rng(30)
    strings = ["init", "meta-data", "maml", "baseline", "search", "exec", "replay", "", "ü"]
    kinds = [
        lambda: 0,
        lambda: 2**32 - 1,
        lambda: int(rng.integers(0, 2**32)),
        lambda: -int(rng.integers(1, 2**40)),
        lambda: int(rng.integers(0, 2**62)) * 4,
        lambda: 2**64 + 5,
        lambda: -2**70,
        lambda: strings[int(rng.integers(len(strings)))],
    ]
    for length in range(1, 7):
        rows = [
            tuple(kinds[int(rng.integers(len(kinds)))]() for _ in range(length))
            for _ in range(3_500)
        ]
        assert derive_seeds(rows) == [seed_sequence_seed(row) for row in rows], length
        assert derive_seed(*rows[0]) == seed_sequence_seed(rows[0])
    rows = [(2**64 + 5, tag, -2**70, q) for tag in ("search", "exec") for q in range(-3, 200)]
    assert derive_seeds(rows) == [seed_sequence_seed(row) for row in rows]


def test_generator_states_match_default_rng():
    """Each computed state is ``default_rng(seed)``'s, over a seeded sweep
    of 32-bit seeds with 0, 1 and 2**32 - 1; one reused generator set to
    each state draws what ``default_rng(seed)`` draws."""
    seeds = [0, 1, 2**32 - 1, *np.random.default_rng(31).integers(0, 2**32, 3_000).tolist()]
    states = generator_states(seeds)
    reused = np.random.default_rng(0)
    for seed, state in zip(seeds, states):
        fresh = np.random.default_rng(seed)
        assert state == fresh.bit_generator.state, seed
        reused.bit_generator.state = state
        for draw in (lambda g: g.random(), lambda g: g.integers(37), lambda g: g.normal(0, 0.3)):
            assert draw(reused) == draw(fresh), seed


def test_derive_seed_warns_of_no_overflow():
    """The uint32 arithmetic wraps on arrays; under numpy 2 a uint32 scalar
    that overflowed would warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        derive_seed(2**32 - 1, "search", 2**32 - 1, -1)
        derive_seed(2**32 - 1, "exec", 2**31, -1, 7, "z")
        derive_seeds([(2**32 - 1, q, "x") for q in range(50)])


# --- plan search -----------------------------------------------------------------

def search_setup():
    catalog = make_catalog(
        [("a", 500, 16, 1.0), ("b", 2000, 16, 0.5), ("c", 80, 16, 1.0)],
        {("a", "b"): 0.01, ("b", "c"): 0.05},
    )
    query = make_query("s3", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    return catalog, query


def test_greedy_exhaustive_two_relation_picks_predict_minimum(pair_catalog, pair_query, default_cost):
    model = init_params((feature_dim(pair_catalog), 8, 1), 5)
    plan = plan_search(
        pair_query, model, pair_catalog, default_cost,
        beam_width=10_000, epsilon=0.0, rng_seed=0,
    )
    # Enumerate all 6 final states by hand and compare scores.
    from joinopt.plans import JoinOp, Join, Scan

    ctx = QueryContext(pair_query, pair_catalog, default_cost)
    candidates = []
    for left, right in (("r", "s"), ("s", "r")):
        for op in JoinOp:
            node = Join(Scan(left), Scan(right), op)
            feats = fragment_rows(plan_infos(node, ctx)[-1:], ctx)[0]
            candidates.append((predict_batch(model, feats[None, :])[0], node))
    best = min(candidates, key=lambda pair: pair[0])[1]
    assert plan == best


def test_search_deterministic(default_cost):
    catalog, query = search_setup()
    model = init_params((feature_dim(catalog), 8, 1), 1)
    a = plan_search(query, model, catalog, default_cost, 4, 0.3, rng_seed=9)
    b = plan_search(query, model, catalog, default_cost, 4, 0.3, rng_seed=9)
    assert a == b


def test_search_epsilon_one_distribution(default_cost):
    """With epsilon = 1 the search performs a uniform random walk over legal
    actions; on a 3-relation chain every distinct complete plan corresponds
    to exactly one 2-action sequence, so all 72 plans are equally likely.
    Statistical oracle: chi-square against uniform over observed support."""
    from scipy import stats as scistats

    catalog, query = search_setup()
    model = init_params((feature_dim(catalog), 8, 1), 1)
    counts = {}
    n_draws = 7200
    for seed in range(n_draws):
        plan = plan_search(query, model, catalog, default_cost, 4, 1.0, rng_seed=seed)
        key = repr(plan)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 72
    chi = scistats.chisquare(list(counts.values()))
    assert chi.pvalue > 0.001


def test_search_returns_valid_plan(default_cost, rng):
    from conftest import random_tree_catalog_and_query

    for trial in range(5):
        catalog, query = random_tree_catalog_and_query(rng, int(rng.integers(2, 7)))
        model = init_params((feature_dim(catalog), 8, 1), trial)
        plan = plan_search(query, model, catalog, default_cost, 3, 0.5, rng_seed=trial)
        ctx = QueryContext(query, catalog, default_cost)
        assert plan_infos(plan, ctx)[-1].mask == ctx.full_mask


def test_beam_with_cost_oracle_finds_expert_cost_on_star6():
    """A linear value model that returns the log1p-cost feature slot ranks
    fragments exactly by cost.  With a width-8 beam that holds distinct
    relation-set partitions, greedy search then reaches a DP-cost plan on
    every bundled query.  A beam filled by operator or child-order variants
    of one partition returns the width-1 plan instead (2.63x the DP cost on
    q02-q06 and q11)."""
    cfg = load_run_config(BUNDLE / "experiment.json")
    catalog = load_catalog(cfg.catalog_path)
    queries = load_workload(cfg.train_workload_path, catalog) + load_workload(
        cfg.test_workload_path, catalog
    )
    d = feature_dim(catalog)
    weights = np.zeros((d, 1))
    weights[len(catalog.tables) + 5, 0] = 1.0  # log1p(estimated cost)
    oracle = ModelParams((d, 1), np.append(weights, 0.0))
    worse = {}
    for query in queries:
        plan = plan_search(
            query, oracle, catalog, cfg.cost_model, beam_width=8, epsilon=0.0, rng_seed=0
        )
        ctx = QueryContext(query, catalog, cfg.cost_model)
        got, want = ctx.cost(plan), ctx.cost(ctx.expert())
        if got != pytest.approx(want, rel=1e-9):
            worse[query.id] = round(got / want, 3)
    assert len(queries) == 13
    assert worse == {}


GOLDEN_PLANS = Path(__file__).resolve().parent / "golden_plans.json"


def searched_plans(through_context: bool = False) -> dict[str, str]:
    """``plan_repr`` of ``plan_search`` for the 13 bundled star6 queries and
    two generated 10-12 relation snowflake queries, under two 64-64 model
    initializations, widths 1 and 8, epsilon 0 and 0.5, bushy and
    left-deep; each search is handed the query, or, ``through_context``,
    the query's compiled ``QueryContext``."""
    from joinopt.catalog import catalog_from_doc, workload_from_doc
    from joinopt.plans import plan_repr

    cfg = load_run_config(BUNDLE / "experiment.json")
    star = load_catalog(cfg.catalog_path)
    star_queries = load_workload(cfg.train_workload_path, star) + load_workload(
        cfg.test_workload_path, star
    )
    catalog_doc, train_doc, _ = generate(12, "snowflake", 2, 0, seed=7, min_relations=10)
    snow = catalog_from_doc(catalog_doc, "snowflake")
    snow_queries = workload_from_doc(train_doc, snow, "snowflake")
    plans = {}
    for name, catalog, queries in (("star6", star, star_queries), ("snow12", snow, snow_queries)):
        for init in (0, 1):
            model = init_params((feature_dim(catalog), 64, 64, 1), init)
            for query in queries:
                searched = QueryContext(query, catalog, cfg.cost_model) if through_context else query
                for width in (1, 8):
                    for epsilon in (0.0, 0.5):
                        for left_deep in (False, True):
                            key = f"{name}/{query.id}/init{init}/w{width}/e{epsilon}/ld{int(left_deep)}"
                            plan = plan_search(
                                searched, model, catalog, cfg.cost_model, width, epsilon,
                                rng_seed=derive_seed(init, query.id), left_deep_only=left_deep,
                            )
                            plans[key] = plan_repr(plan)
    return plans


def test_search_plans_match_golden():
    """Plans recorded from the one-successor-at-a-time beam search; a faster
    search must return exactly the same plans, whether it is handed a query
    or its compiled context."""
    golden = json.loads(GOLDEN_PLANS.read_text(encoding="utf-8"))
    for through_context in (False, True):
        got = searched_plans(through_context)
        assert len(got) == (13 + 2) * 2 * 8
        assert {k: v for k, v in got.items() if golden.get(k) != v} == {}
        assert got.keys() == golden.keys()


CHAIN8 = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "chain8"


def shape_repeating_lists(tmp_path):
    """(run config, train then test contexts) of the committed chain8
    documents, read in place, and of a generated 5-table star workload of
    2-5 relation queries, searched 4 wide and left-deep; both repeat shapes."""
    write_files(tmp_path, *generate(5, "star", 30, 6, seed=3))
    star = dataclasses.replace(
        load_run_config(config_file(tmp_path)),
        search=SearchConfig(beam_width=4, left_deep_only=True),
    )
    lists = []
    for cfg in (load_run_config(CHAIN8 / "experiment.json"), star):
        setup = prepare_run(cfg, 1)
        contexts = setup.train + setup.test
        assert len({ctx.shape for ctx in contexts}) < len(contexts) / 2
        lists.append((cfg, contexts))
    return lists


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
def test_shared_search_states_give_every_plan_in_fewer_forward_passes(
    epsilon, tmp_path, monkeypatch
):
    """``search_plans``, searching a list of queries that repeat shapes with
    one table of scored steps, returns, query for query, the plan each
    search returns alone without one, seeded by the integer its generator
    state was derived from, over several models and seeds, and makes fewer
    ``predict_batch`` calls."""
    from joinopt.plans import plan_repr

    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return predict_batch(*args)

    monkeypatch.setattr(trainer_module, "predict_batch", counted)
    for cfg, contexts in shape_repeating_lists(tmp_path):
        layer_sizes = (feature_dim(contexts[0].catalog), 16, 16, 1)
        for seed in (1, 2, 3):
            model = init_params(layer_sizes, seed)
            seeds = [derive_seed(seed, qidx) for qidx in range(len(contexts))]
            calls.clear()
            alone = [
                plan_repr(plan_search(
                    ctx.query, model, ctx.catalog, cfg.cost_model, cfg.search.beam_width,
                    epsilon, query_seed, cfg.search.left_deep_only,
                ))
                for ctx, query_seed in zip(contexts, seeds)
            ]
            passes = [len(calls)]
            calls.clear()
            shared = search_plans(
                contexts, model, cfg, epsilon, np.random.default_rng(0), generator_states(seeds)
            )
            passes.append(len(calls))
            assert [plan_repr(plan) for plan in shared] == alone
            assert passes[1] < passes[0]


def test_search_states_of_other_catalogs_or_cost_configs_are_kept_apart(
    chain3_catalog, chain3_query, default_cost
):
    """Contexts of the same relation names and join edges share a shape
    only under one catalog object and one cost config: a catalog of other
    row counts, or another cost config, keys its own steps, and each search
    sharing a table returns its plan alone."""
    from joinopt.plans import plan_repr

    other_rows = make_catalog(
        [("a", 100, 16, 1.0), ("b", 9_000, 16, 1.0), ("c", 50, 16, 1.0)],
        {("a", "b"): 0.1, ("b", "c"): 0.05},
    )
    other_cost = dataclasses.replace(default_cost, nlj_cost_per_row_pair=0.5)
    twin = make_query("twin", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    searches = [
        (chain3_query, chain3_catalog, default_cost),
        (chain3_query, other_rows, default_cost),
        (chain3_query, chain3_catalog, other_cost),
        (twin, chain3_catalog, default_cost),
    ]
    contexts = [QueryContext(*search) for search in searches]
    assert len({ctx.shape for ctx in contexts}) == 3
    assert contexts[3].shape == contexts[0].shape
    model = init_params((feature_dim(chain3_catalog), 8, 1), 2)
    states = {}
    for query, catalog, cost in searches:
        shared = plan_search(query, model, catalog, cost, 2, 0.0, 0, states=states)
        assert plan_repr(shared) == plan_repr(plan_search(query, model, catalog, cost, 2, 0.0, 0))
    assert len(states) == 3


def test_training_drops_each_shapes_search_states_after_its_last_query(
    tmp_path, monkeypatch
):
    """The tables of scored steps that an iteration's train searches and an
    evaluation's searches share hold a shape's steps from its first query's
    search until right after its last one's, so they are empty once the
    searches of an iteration or an evaluation are done."""
    write_files(tmp_path, *generate(4, "chain", 12, 4, seed=3, max_relations=3))
    cfg = load_run_config(config_file(tmp_path, iterations=3, eval_interval=1))
    tables, searched = [], []  # per table, (shape, shapes held before) per search

    def search(query, *args, states=None, **kwargs):
        if not tables or tables[-1] is not states:
            tables.append(states)
            searched.append([])
        searched[-1].append((query.shape, set(states)))
        return plan_search(query, *args, states=states, **kwargs)

    def sample(*args):
        assert all(not table for table in tables)
        return retention.sample_replay(*args)

    monkeypatch.setattr(trainer_module, "plan_search", search)
    monkeypatch.setattr(trainer_module, "sample_replay", sample)
    run_training(cfg)
    assert all(not table for table in tables)
    # Evaluations of train then test queries at iterations 0 to 3, and the
    # train searches of iterations 1 to 3 between them.
    assert [len(s) for s in searched] == [16, 12, 16, 12, 16, 12, 16]
    train = [shape for shape, _ in searched[1]]
    assert len(set(train)) < len(train)
    assert {shape for shape, _ in searched[0][12:]} <= set(train)
    for order in searched:
        shapes = [shape for shape, _ in order]
        for k, (_, held) in enumerate(order):
            assert held == set(shapes[:k]) & set(shapes[k:])


def execute_alone(contexts, plans, exec_states, rng, iteration):
    """Each query's plan executed and extracted alone, one walk for its cost
    and one for its block: the loop that ``execute_plans`` replaced."""
    blocks = []
    for ctx, plan, state in zip(contexts, plans, exec_states, strict=True):
        rng.bit_generator.state = state
        latency = simulator.execute(ctx.cost(plan), ctx.cfg, rng)
        blocks.append(retention.extract_experiences(plan, ctx, latency, iteration))
    return blocks


RING_COLUMNS = ("table", "sid", "next_sid", "stored_at", "latency", "label", "query_id")


def test_executing_each_distinct_plan_once_writes_the_ring_bit_for_bit(monkeypatch):
    """A few iterations on the committed chain8 documents, read in place,
    at epsilon 0.5 write every ring column byte for byte as executing and
    extracting each query alone does, with fewer extractions than
    executions: queries of one shape that take one decision path share a
    plan object."""
    cfg = load_run_config(CHAIN8 / "experiment.json")
    cfg = dataclasses.replace(
        cfg,
        iterations=3,
        transfer=dataclasses.replace(cfg.transfer, enabled=False),
        search=dataclasses.replace(cfg.search, epsilon=0.5),
    )
    extracted = []

    def counted(*args):
        extracted.append(args[1].query.id)
        return retention.extract_experiences(*args)

    monkeypatch.setattr(trainer_module, "extract_experiences", counted)
    shared = run_training(cfg)
    monkeypatch.setattr(trainer_module, "execute_plans", execute_alone)
    alone = run_training(cfg)
    executions = cfg.iterations * len(shared.train_ids)
    assert len(alone.buffer) == len(shared.buffer) > executions
    assert 0 < len(extracted) < executions
    for column in RING_COLUMNS:
        got, want = getattr(shared.buffer, column), getattr(alone.buffer, column)
        if column == "query_id":  # object arrays' bytes are pointers
            got, want = got.astype(str), want.astype(str)
        assert got.tobytes() == want.tobytes(), column


def shared_plan_cases(chain3_catalog, chain3_query, default_cost):
    """(contexts, plans, extractions expected) of three-relation chains:
    one plan object for two queries of one shape, two equal plan objects
    for them, and one object for one query under two cost configs, two
    shapes.  The plan's nested loop join costs more under the second."""
    twin = make_query("twin", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    other_cost = dataclasses.replace(default_cost, nlj_cost_per_row_pair=0.5)
    one, two, other = (
        QueryContext(query, chain3_catalog, cost)
        for query, cost in ((chain3_query, default_cost), (twin, default_cost),
                            (chain3_query, other_cost))
    )

    def plan():
        return Join(Join(Scan("a"), Scan("b"), JoinOp.NESTED_LOOP), Scan("c"), JoinOp.MERGE)

    shared = plan()
    return [
        ([one, two], [shared, shared], 1),
        ([one, two], [plan(), plan()], 2),
        ([one, other], [shared, shared], 2),
    ]


def test_execute_plans_shares_a_block_only_among_one_plan_objects_executions(
    chain3_catalog, chain3_query, default_cost, monkeypatch
):
    """One plan object executed for two queries of one shape is extracted
    once, and the second block shares the first's arrays; two equal but
    distinct plan objects, and one object under two shapes, are each
    extracted.  Each extraction reads the one walk of its plan that costs
    it.  Every block is the one executing its query alone gives, and no
    in-place write to a block's arrays succeeds."""
    extracted, walks = [], []

    def counted(*args):
        extracted.append(args[0])
        return retention.extract_experiences(*args)

    def walk(*args):
        walks.append(args[0])
        return plan_infos(*args)

    monkeypatch.setattr(trainer_module, "extract_experiences", counted)
    for module in (simulator, retention):
        monkeypatch.setattr(module, "plan_infos", walk)
    exec_states = generator_states([5, 6])
    rng = np.random.default_rng(0)
    for contexts, plans, extractions in shared_plan_cases(
        chain3_catalog, chain3_query, default_cost
    ):
        extracted.clear()
        walks.clear()
        blocks = execute_plans(contexts, plans, exec_states, rng, 2)
        assert len(extracted) == len(walks) == extractions
        assert (blocks[1].features is blocks[0].features) == (extractions == 1)
        for got, want in zip(blocks, execute_alone(contexts, plans, exec_states, rng, 2)):
            assert (got.query_id, got.iteration, got.latency_ms) == (
                want.query_id, want.iteration, want.latency_ms
            )
            assert got.features.tobytes() == want.features.tobytes()
            assert got.parent.tobytes() == want.parent.tobytes()
            for array in (got.features, got.parent):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


def test_no_executed_plan_outlives_its_iteration(workload_dir, monkeypatch):
    """``execute_plans`` keeps no plan once it returns, and a run holds no
    train search's plan past the iteration that searched it: at each
    replay, every plan of an earlier iteration has been freed."""
    ctx = prepare_run(load_run_config(config_file(workload_dir)), 3).train[0]
    model = init_params((feature_dim(ctx.catalog), 8, 1), 1)
    plans = [plan_search(ctx.query, model, ctx.catalog, ctx.cfg, 2, 1.0, seed) for seed in (1, 2)]
    refs = [weakref.ref(plan) for plan in plans]
    blocks = execute_plans([ctx] * 3, plans + plans[:1], generator_states([1, 2, 3]),
                           np.random.default_rng(0), 1)
    del plans
    gc.collect()
    assert len(blocks) == 3 and all(ref() is None for ref in refs)

    searched, earlier = [], []

    def search(*args, epsilon, **kwargs):
        plan = plan_search(*args, epsilon=epsilon, **kwargs)
        if epsilon > 0:  # a train search; evaluations are greedy
            searched.append(weakref.ref(plan))
        return plan

    def sample(*args):
        gc.collect()
        assert all(ref() is None for ref in earlier)
        earlier[:] = searched
        searched.clear()
        return retention.sample_replay(*args)

    monkeypatch.setattr(trainer_module, "plan_search", search)
    monkeypatch.setattr(trainer_module, "sample_replay", sample)
    cfg = load_run_config(config_file(workload_dir, iterations=3))
    run_training(cfg)
    assert earlier


def test_random_rollout_is_legal(default_cost, rng):
    catalog, query = search_setup()
    ctx = QueryContext(query, catalog, default_cost)
    for _ in range(10):
        plan = random_rollout(ctx, rng)
        assert plan_infos(plan, ctx)[-1].mask == ctx.full_mask


# --- meta task construction --------------------------------------------------------

def test_build_meta_tasks_shapes(default_cost):
    catalog, query = search_setup()
    query2 = make_query("s2", ["a", "b"], [("a", "b")])
    taskset = TaskSet((("s3",), ("s2",)), PartitioningPolicy.HALSTEAD)
    contexts = {q.id: QueryContext(q, catalog, default_cost) for q in (query, query2)}
    tasks = build_meta_tasks(taskset, contexts, rollouts_per_query=2, rng_seed=4)
    assert len(tasks) == 2
    (features, labels), (features2, _) = tasks
    # s3 has 3 plans x 2 joins, s2 has 3 plans x 1 join.
    assert features.shape == (6, feature_dim(catalog))
    assert features2.shape == (3, feature_dim(catalog))
    assert np.isfinite(labels).all()
    # The expert plan's rows come first, children before parents, each
    # labeled with the plan's noiseless latency.
    ctx = contexts["s3"]
    expert_rows = fragment_rows(
        [info for info in plan_infos(ctx.expert(), ctx) if isinstance(info.node, Join)],
        ctx,
    )
    assert len(expert_rows) == 2 and expert_rows[-1][-2] == 2.0  # root depth
    np.testing.assert_array_equal(features[:2], expert_rows)
    assert labels[0] == math.log1p(ctx.latency(ctx.expert()))


# --- run_training -------------------------------------------------------------------

def test_training_smoke_with_retention_disabled(workload_dir):
    cfg = load_run_config(config_file(workload_dir))
    cfg = dataclasses.replace(cfg, retention=dataclasses.replace(cfg.retention, enabled=False))
    result = run_training(cfg)
    assert result.records[-1].iteration == 4
    assert result.records[-1].buffer_size > 0  # buffer still fills; training ignores it


def test_training_seeds_no_generator_per_query(workload_dir, monkeypatch):
    """Every train query's search and execution draw from one reused
    generator whose state is set, so an iteration builds a generator from a
    seed only for its replay draw: runs of 2 and 4 iterations differ by two
    such constructions, where one per search and per execution would add
    four per train query."""
    real = np.random.default_rng
    from_seeds = []

    def default_rng(seed=None):
        if not isinstance(seed, np.random.Generator):
            from_seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    counts = []
    for iterations in (2, 4):
        from_seeds.clear()
        run_training(load_run_config(config_file(workload_dir, iterations=iterations)))
        counts.append(len(from_seeds))
    assert counts[1] - counts[0] == 2


def test_no_retention_batch_is_uniform_over_this_iterations_rows(workload_dir, monkeypatch):
    """The fresh-only arm draws its batch uniformly from the rows of the
    iteration's plans, recency slot 1.0, even when they outnumber the
    buffer's capacity."""
    cfg = load_run_config(config_file(workload_dir, iterations=2, retention={"capacity": 2}))
    cfg = dataclasses.replace(cfg, retention=dataclasses.replace(cfg.retention, enabled=False))
    blocks, batches = [], []  # per iteration, every execution's block and the batch

    def fresh(iteration_blocks, *args):
        blocks.append(list(iteration_blocks))
        return retention.fresh_batch(iteration_blocks, *args)

    def train_on(params, batch, *args):
        batches.append(batch)
        return params

    monkeypatch.setattr(trainer_module, "fresh_batch", fresh)
    monkeypatch.setattr(trainer_module, "_train_on", train_on)
    result = run_training(cfg)
    assert len(batches) == len(blocks) == cfg.iterations
    for iteration, (features, labels) in enumerate(batches, start=1):
        assert len(blocks[iteration - 1]) == len(result.train_ids)
        rows = [(x, b.latency_ms) for b in blocks[iteration - 1] for x in b.features]
        assert len(rows) > cfg.retention.capacity
        rng = np.random.default_rng(derive_seed(cfg.base_seed, "replay", iteration))
        drawn = rng.integers(0, len(rows), size=cfg.retention.k_replay)
        want = np.array([rows[i][0] for i in drawn])
        want[:, -1] = 1.0
        assert np.array_equal(features, want)
        assert labels.tolist() == [math.log1p(rows[i][1]) for i in drawn]


def test_training_smoke_with_transfer(workload_dir):
    cfg = load_run_config(
        config_file(
            workload_dir,
            transfer={"enabled": True, "n_outer": 3, "n_inner": 1, "k_tasks": 2, "rollouts_per_query": 1},
        )
    )
    result = run_training(cfg)
    assert result.records[-1].iteration == cfg.iterations
    # The run meta-initializes with this taskset; meta-train reports it.
    setup = prepare_run(cfg, cfg.base_seed)
    _, taskset = meta_initialize(cfg, setup.train, setup.initial_params(), cfg.base_seed)
    assert len(taskset.tasks) == 2


def test_forced_policy_is_used(workload_dir):
    cfg = load_run_config(
        config_file(
            workload_dir,
            transfer={
                "enabled": True, "n_outer": 2, "n_inner": 1, "k_tasks": 2,
                "rollouts_per_query": 1, "forced_policy": "operator_count",
            },
        )
    )
    setup = prepare_run(cfg, cfg.base_seed)
    _, taskset = meta_initialize(cfg, setup.train, setup.initial_params(), cfg.base_seed)
    assert taskset.policy is PartitioningPolicy.OPERATOR_COUNT
    # Not DBI-selected, but DBI-scored as partition selection scores it.
    scored = transfer_module.score_all_policies(setup.train, 2)
    assert taskset == next(
        ts for ts in scored if ts.policy is PartitioningPolicy.OPERATOR_COUNT
    )


def test_meta_init_divergence_names_its_phase(workload_dir):
    cfg = load_run_config(
        config_file(
            workload_dir,
            transfer={"enabled": True, "n_outer": 2, "n_inner": 1, "k_tasks": 2,
                      "rollouts_per_query": 1, "outer_lr": 1e6, "inner_lr": 1e6},
        )
    )
    # A library caller outside ``cli.main`` sees numpy's warnings on the way.
    with pytest.warns(RuntimeWarning):
        with pytest.raises(
            ModelError, match="^iteration 0: maml: layer 0: non-finite parameter$"
        ):
            run_training(cfg)


@pytest.mark.parametrize("arms", [{}, {"retention": False, "transfer": False}],
                         ids=["defaults", "no-retention-no-transfer"])
def test_ordinary_runs_raise_no_numpy_warning_outside_the_cli(arms):
    """The CLI silences numpy's overflow and invalid-value warnings for every
    command; a library caller does not.  A short star6 run, its evaluation
    and a replay draw on its result overflow nothing, so they warn of
    nothing without that policy."""
    cfg = load_run_config(BUNDLE / "experiment.json")
    cfg = dataclasses.replace(
        cfg,
        iterations=3,
        repetitions=1,
        retention=dataclasses.replace(cfg.retention, enabled=arms.get("retention", True)),
        transfer=dataclasses.replace(cfg.transfer, enabled=arms.get("transfer", True)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_training(cfg)
        setup = prepare_run(cfg, result.base_seed)
        latencies = evaluate_queries(setup.train + setup.test, result.params, cfg)
        retention.sample_replay(result.buffer, result.params, cfg.retention, 0)
    assert all(math.isfinite(latency) for latency in latencies.values())


def test_evicting_run_matches_the_reference_ring(monkeypatch):
    """A star6 run whose 50-row buffer evicts from its second iteration
    on, splitting the oldest plan at 11 of its 12 replay passes, gives the
    same records and model, bit for bit, as with the reference ring, which
    copies the oldest plan's evicted rows aside and is scored by one plain
    pass over its materialized states."""
    from test_retention import KeptRing, is_split, reference_td_error

    cfg = load_run_config(BUNDLE / "experiment.json")
    cfg = dataclasses.replace(
        cfg,
        iterations=12,
        repetitions=1,
        retention=dataclasses.replace(cfg.retention, capacity=50),
    )
    splits = []

    def sample_replay(buffer, *args):
        splits.append(is_split(buffer))
        return retention.sample_replay(buffer, *args)

    monkeypatch.setattr(trainer_module, "sample_replay", sample_replay)
    runs = [run_training(cfg)]
    assert sum(splits) >= 6
    monkeypatch.setattr(trainer_module, "sample_replay", retention.sample_replay)
    monkeypatch.setattr(trainer_module, "ReplayBuffer", KeptRing)
    monkeypatch.setattr(retention, "td_error", reference_td_error)
    runs.append(run_training(cfg))
    records = [
        [repr(dataclasses.replace(r, wall_clock_ms=0.0)) for r in run.records] for run in runs
    ]
    assert records[0] == records[1]
    assert runs[0].params.vector.tobytes() == runs[1].params.vector.tobytes()


def test_online_sgd_steps_go_through_the_trainers_bindings(workload_dir, monkeypatch):
    """The traced benchmark wraps ``sgd_step`` and ``batch_grad`` where
    ``trainer`` binds them, and fails on a name that records no call.  So
    every online SGD step calls both through those bindings, once per
    chunk and pass, and meta-initialization calls neither."""
    cfg = load_run_config(
        config_file(
            workload_dir,
            iterations=3,
            model={"minibatch": 100, "train_passes": 2},
            transfer={"enabled": True, "n_outer": 2, "n_inner": 2, "k_tasks": 2,
                      "rollouts_per_query": 1},
        )
    )
    counts = {"sgd_step": 0, "batch_grad": 0}

    def counting(name):
        original = getattr(trainer_module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    for name in counts:
        monkeypatch.setattr(trainer_module, name, counting(name))
    run_training(cfg)
    chunks = math.ceil(cfg.retention.k_replay / cfg.model.minibatch)
    assert chunks == 3
    want = cfg.iterations * cfg.model.train_passes * chunks
    assert counts == {"sgd_step": want, "batch_grad": want}


def test_train_on_leaves_its_inputs_unwritten():
    """An online SGD phase steps in place on its own copy of the parameters:
    it writes neither the parameters nor the batch it is given, returns a
    vector that shares no memory with them, and takes the same steps, bit
    for bit, as new arrays per minibatch chunk and pass."""
    rng = np.random.default_rng(3)
    params = init_params((5, 7, 1), 4)
    batch = (rng.normal(size=(10, 5)), rng.normal(size=10))
    arrays = (params.vector, *batch)
    snapshot = [a.copy() for a in arrays]
    trained = trainer_module._train_on(params, batch, 4, 0.01, passes=2)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, snapshot))
    assert not any(np.shares_memory(trained.vector, a) for a in arrays)
    want = params
    for _ in range(2):
        for rows in (slice(0, 4), slice(4, 8), slice(8, 10)):
            want = stepped(want, gradient(want, batch[0][rows], batch[1][rows]), 0.01)
    assert trained.vector.tobytes() == want.vector.tobytes()


def test_expert_plan_runs_once_per_query(workload_dir, monkeypatch):
    """Every set-up step (baselines, noiseless expert latency, partition
    selection and meta-task building) reads one compiled context per query,
    so the DP runs once per distinct query."""
    calls = []
    original = simulator.expert_plan

    def counting(ctx):
        calls.append(ctx.id)
        return original(ctx)

    # Patch every module that binds the DP, as the benchmark's tracer does.
    for module in (simulator, trainer_module, transfer_module):
        if getattr(module, "expert_plan", None) is original:
            monkeypatch.setattr(module, "expert_plan", counting)
    cfg = load_run_config(
        config_file(
            workload_dir,
            iterations=1,
            transfer={"enabled": True, "n_outer": 1, "n_inner": 1, "k_tasks": 2,
                      "rollouts_per_query": 1},
        )
    )
    result = run_training(cfg)
    assert sorted(calls) == sorted(result.train_ids + result.test_ids)


def test_greedy_search_on_a_fresh_context_runs_no_expert_dp(
    chain3_catalog, chain3_query, default_cost, monkeypatch
):
    """Serving compiles a new context for each ``plan_search`` call, so the
    context compiles everything but the expert DP when it is made, and a
    greedy search never runs the DP."""
    calls, compiled = [], []
    monkeypatch.setattr(simulator, "expert_plan", lambda *args: calls.append(args))
    compile_ = simulator.QueryContext.__init__
    monkeypatch.setattr(
        simulator.QueryContext, "__init__", lambda self, *a: compiled.append(a[0].id) or compile_(self, *a)
    )
    params = init_params((feature_dim(chain3_catalog), 8, 1), 0)
    plan = plan_search(
        chain3_query, params, chain3_catalog, default_cost, beam_width=1, epsilon=0.0, rng_seed=0
    )
    assert QueryContext(chain3_query, chain3_catalog, default_cost).cost(plan) > 0
    assert compiled == ["chain3", "chain3"]
    assert calls == []


def test_search_and_expert_reuse_the_runs_contexts(workload_dir, monkeypatch):
    """plan_search and the expert DP are handed the contexts that
    prepare_run compiled, so a repeated evaluation grows no context's
    cardinality memo and the DP compiles no context of its own."""
    cfg = load_run_config(config_file(workload_dir))
    setup = prepare_run(cfg, cfg.base_seed)
    contexts = setup.train + setup.test
    params = setup.initial_params()
    first = evaluate_queries(contexts, params, cfg)
    memo_sizes = [len(ctx._card) for ctx in contexts]
    compiled = []
    compile_ = simulator.QueryContext.__init__
    monkeypatch.setattr(
        simulator.QueryContext, "__init__", lambda self, *a: compiled.append(a[0].id) or compile_(self, *a)
    )
    assert evaluate_queries(contexts, params, cfg) == first
    assert [len(ctx._card) for ctx in contexts] == memo_sizes
    assert compiled == []
    expert = contexts[0].expert()
    assert compiled == []
    assert simulator.expert_plan(contexts[0]) == expert
    assert compiled == []


def test_eval_records_on_schedule(workload_dir):
    cfg = load_run_config(config_file(workload_dir, iterations=5, eval_interval=2))
    result = run_training(cfg)
    assert [r.iteration for r in result.records] == [0, 2, 4, 5]


def test_buffer_growth_matches_joins(workload_dir):
    """Buffer grows by (|relations| - 1) per executed train query per
    iteration until capacity."""
    cfg = load_run_config(config_file(workload_dir, iterations=2, eval_interval=1))
    catalog = load_catalog(cfg.catalog_path)
    train = load_workload(cfg.train_workload_path, catalog)
    per_iteration = sum(len(q.relations) - 1 for q in train)
    result = run_training(cfg)
    by_iter = {r.iteration: r.buffer_size for r in result.records}
    assert by_iter[1] == per_iteration
    assert by_iter[2] == 2 * per_iteration


def test_buffer_respects_capacity(workload_dir):
    cfg = load_run_config(config_file(workload_dir, iterations=3, eval_interval=1,
                                       retention={"capacity": 10}))
    result = run_training(cfg)
    assert all(r.buffer_size <= 10 for r in result.records)
    assert len(result.buffer) == result.records[-1].buffer_size == 10


def test_reproducibility_bitwise(workload_dir):
    cfg = load_run_config(config_file(workload_dir))
    a = run_training(cfg)
    b = run_training(cfg)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.iteration == rb.iteration
        assert ra.train_latencies == rb.train_latencies
        assert ra.test_latencies == rb.test_latencies
        assert ra.wrl_train == rb.wrl_train
        assert (ra.mean_sampled_norm_td == rb.mean_sampled_norm_td) or (
            math.isnan(ra.mean_sampled_norm_td) and math.isnan(rb.mean_sampled_norm_td)
        )
    for wa, wb in zip(a.params.weights, b.params.weights):
        assert np.array_equal(wa, wb)


def test_eval_latency_never_beats_expert(workload_dir):
    """DP optimality bound: noiseless evaluation latency >= the expert's
    noiseless latency for every query at every evaluation."""
    cfg = load_run_config(config_file(workload_dir, iterations=6, eval_interval=2))
    result = run_training(cfg)
    for record in result.records:
        for split_lat in (record.train_latencies, record.test_latencies):
            for qid, latency in split_lat.items():
                assert latency >= result.expert_noiseless[qid] - 1e-9


def test_traces_and_verdicts_cover_queries(workload_dir):
    """Each split's verdicts cover its queries, each judged on its own
    evaluations against its own baseline."""
    cfg = load_run_config(config_file(workload_dir))
    result = run_training(cfg)
    for split, ids in (("train", result.train_ids), ("test", result.test_ids)):
        verdicts = result.verdicts(split)
        assert list(verdicts) == list(ids)
        for qid in ids:
            points = [
                (rec.iteration, getattr(rec, f"{split}_latencies")[qid]) for rec in result.records
            ]
            assert verdicts[qid] == classify_query(
                points, result.baselines[qid], cfg.window_fraction
            )


# --- repetitions --------------------------------------------------------------------

def test_repetitions_use_distinct_seeds(workload_dir):
    cfg = load_run_config(config_file(workload_dir, iterations=1, repetitions=3))
    runs = run_repetitions(cfg)
    assert [run.base_seed for run in runs] == [3, 4, 5]


def test_single_repetition_median_equals_run(workload_dir):
    cfg = load_run_config(config_file(workload_dir, iterations=2, repetitions=1))
    runs = run_repetitions(cfg)
    row, median = summary_table(runs)
    assert median["final_wrl_test"] == runs[0].final_wrl("test") == row["final_wrl_test"]
    assert median["rep"] == "median" and median["seed"] is None


@dataclasses.dataclass
class _ConvergedRun:
    """The parts of a RunResult that a summary row reads, for a run that
    converged at a given iteration (None: never)."""

    base_seed: int
    converged_at: int | None

    def convergence(self):
        return self.converged_at

    def final_wrl(self, split):
        return 1.0

    def verdicts(self, split):
        return {}


@pytest.mark.parametrize(
    "iterations, expected",
    [([5, None, None], "NC"), ([5, 10, None], 10), ([5, 10], 7.5)],
)
def test_summary_median_counts_no_convergence_as_latest(iterations, expected):
    """A run that never converged is NC in its row and counts as later than
    any run that did: the median row is NC when the median run never
    converged."""
    runs = [_ConvergedRun(seed, c) for seed, c in enumerate(iterations)]
    table = summary_table(runs)
    assert [row["convergence_iteration"] for row in table[:-1]] == [
        "NC" if c is None else c for c in iterations
    ]
    assert table[-1]["convergence_iteration"] == expected


# --- run.csv --------------------------------------------------------------------------

def test_run_csv_layout(workload_dir, tmp_path):
    cfg = load_run_config(config_file(workload_dir, iterations=2, eval_interval=1))
    result = run_training(cfg)
    out = tmp_path / "run.csv"
    write_run_csv(result, out)
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "iteration"
    assert header[-1] == "wall_clock_ms"
    assert len(lines) == 1 + len(result.records)
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_read_run_csv_inverts_write(workload_dir, tmp_path):
    cfg = load_run_config(config_file(workload_dir, iterations=2, eval_interval=1))
    result = run_training(cfg)
    out = tmp_path / "run.csv"
    write_run_csv(result, out)
    records = read_run_csv(out, result.train_ids, result.test_ids)
    assert len(records) == len(result.records)
    assert math.isnan(records[0].mean_sampled_norm_td)  # iteration 0 sampled nothing
    for got, want in zip(records, result.records):
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, float) and math.isnan(b):
                assert math.isnan(a), f.name
            else:
                assert a == b and type(a) is type(b), f.name
        assert list(got.test_latencies) == list(result.test_ids)


def test_read_run_csv_refuses_other_queries(workload_dir, tmp_path):
    cfg = load_run_config(config_file(workload_dir, iterations=1, eval_interval=1))
    result = run_training(cfg)
    out = tmp_path / "run.csv"
    write_run_csv(result, out)
    with pytest.raises(ValueError, match="missing column.*'test_latency_ms:extra'"):
        read_run_csv(out, result.train_ids, result.test_ids + ("extra",))
    dropped = result.test_ids[0]
    with pytest.raises(ValueError, match=f"unexpected column.*'test_latency_ms:{dropped}'"):
        read_run_csv(out, result.train_ids, result.test_ids[1:])
    lines = out.read_text().split("\n")
    repeated = f"test_latency_ms:{result.test_ids[0]}"
    out.write_text("\n".join(
        [f"{lines[0]},{repeated}"] + [f"{line},999" for line in lines[1:] if line] + [""]
    ))
    with pytest.raises(ValueError, match=f"run.csv: repeated column.*'{repeated}'"):
        read_run_csv(out, result.train_ids, result.test_ids)
    lines[1] = lines[1].replace(",", ",x", 1)
    out.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="run.csv:2:"):
        read_run_csv(out, result.train_ids, result.test_ids)


@pytest.fixture(scope="module")
def written_run(tmp_path_factory):
    """The rows of a genuine run.csv of three records, and its query ids."""
    tmp = tmp_path_factory.mktemp("written_run")
    write_files(tmp, *generate(5, "star", 6, 2, seed=11, max_relations=4))
    result = run_training(load_run_config(config_file(tmp, iterations=2, eval_interval=1)))
    write_run_csv(result, tmp / "run.csv")
    rows = list(csv.reader(io.StringIO((tmp / "run.csv").read_text())))
    return rows, result.train_ids, result.test_ids


def _column(rows, prefix):
    return next(i for i, name in enumerate(rows[0]) if name.startswith(prefix))


def _read_edited(written_run, tmp_path, edit):
    rows, train_ids, test_ids = written_run
    path = tmp_path / "run.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edit([list(row) for row in rows]))
    return read_run_csv(path, train_ids, test_ids)


def test_read_run_csv_accepts_infinite_latencies_and_nan_replay_means(written_run, tmp_path):
    """A genuine run records +inf where a plan's cost overflows, and NaN
    replay means at iteration 0 and without retention."""

    def edit(rows):
        for column in ("train_latency_ms:", "test_latency_ms:", "wrl_test"):
            rows[2][_column(rows, column)] = "inf"
        for column in ("mean_sampled_norm_td", "mean_sampled_recency", "wall_clock_ms"):
            rows[3][_column(rows, column)] = "nan"
        return rows

    records = _read_edited(written_run, tmp_path, edit)
    assert records[1].wrl_test == math.inf
    assert math.inf in records[1].train_latencies.values()
    assert math.inf in records[1].test_latencies.values()
    assert math.isnan(records[2].mean_sampled_norm_td)
    assert math.isnan(records[2].mean_sampled_recency)
    assert math.isnan(records[2].wall_clock_ms)


@pytest.mark.parametrize(
    "column, value, kind",
    [
        ("test_latency_ms:", "nan", "a number above 0"),
        ("train_latency_ms:", "0.0", "a number above 0"),
        ("test_latency_ms:", "-5", "a number above 0"),
        ("wrl_test", "nan", "a number above 0"),
        ("wrl_train", "-inf", "a number above 0"),
        ("iteration", "1.5", "an integer"),
        ("buffer_size", "", "an integer"),
        ("mean_sampled_recency", "x", "a number"),
    ],
)
def test_read_run_csv_refuses_a_bad_cell_by_line_and_column(
    written_run, tmp_path, column, value, kind
):
    rows = written_run[0]
    name = rows[0][_column(rows, column)]

    def edit(rows):
        rows[2][_column(rows, column)] = value
        return rows

    with pytest.raises(ValueError) as exc:
        _read_edited(written_run, tmp_path, edit)
    assert str(exc.value) == f"{tmp_path / 'run.csv'}:3: {name!r} must be {kind}, got {value!r}"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[:1], ": 0 record(s); a run's history has at least 2"),
        (lambda rows: rows[:2], ": 1 record(s); a run's history has at least 2"),
        (
            lambda rows: rows[:2] + [["0", *rows[2][1:]]] + rows[3:],
            ":3: 'iteration' must exceed line 2's 0",
        ),
        (lambda rows: rows[:1] + rows[2:] + rows[1:2], ":4: 'iteration' must exceed line 3's 2"),
    ],
    ids=["no-records", "one-record", "repeated-iteration", "decreasing-iteration"],
)
def test_read_run_csv_refuses_a_history_judged_on_too_few_or_unordered_records(
    written_run, tmp_path, edit, message
):
    with pytest.raises(ValueError) as exc:
        _read_edited(written_run, tmp_path, edit)
    assert str(exc.value) == f"{tmp_path / 'run.csv'}{message}"


def test_read_run_csv_refuses_text_that_is_not_utf8(written_run, tmp_path):
    rows, train_ids, test_ids = written_run
    path = tmp_path / "run.csv"
    path.write_bytes(b"iteration\xff\n")
    with pytest.raises(ValueError) as exc:
        read_run_csv(path, train_ids, test_ids)
    assert str(exc.value) == f"{path}: not UTF-8 text: invalid start byte at byte 9"
