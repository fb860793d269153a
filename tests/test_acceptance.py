"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7 and 8 run the bundled star workload end to end (both arms, six
repetitions each).  The runs are made once by the module-scoped
``bundled_runs`` fixture, and criterion 9's expert bound is checked across
all of them.  Criterion 7's two arms plan with a greedy (width-1) beam and
run separately from criterion 8's arms, which use the configured beam
(``tools/golden_runs.arm_configs``).  The same runs are compared, record by
record, with ``tests/golden_runs.json``.
"""

import json
import math
import statistics
import sys
import time

import numpy as np
import pytest
from scipy import stats as scistats

from joinopt.catalog import load_catalog, load_workload
from joinopt.features import feature_dim
from joinopt.model import ModelParams, init_params
from joinopt.metrics import wrl
from joinopt.retention import (
    PlanBlock,
    ReplayBuffer,
    RetentionConfig,
    experience_weight,
    normalize_td,
    recency_weight,
    sample_replay,
    td_error,
)
from joinopt.simulator import CostModelConfig, QueryContext, expert_plan
from joinopt.trainer import load_run_config, run_training, summary_table
from joinopt.transfer import (
    davies_bouldin,
    halstead_complexity,
    maml_outer,
    query_embeddings,
    score_all_policies,
    select_partitioning,
)
from joinopt.workload_gen import generate, write_files

from conftest import batch_loss, gradient, make_query, random_tree_catalog_and_query, stepped
from test_simulator import brute_force_min_cost


from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLE = ROOT / "data" / "star6"
sys.path.insert(0, str(ROOT / "tools"))
import golden_runs  # noqa: E402


def report(criterion, name, passed):
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion} ({name}) failed"


def rel_err(got, want):
    if want == 0:
        return abs(got)
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# 1. Formula oracle suite


def test_criterion_1_formula_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True

    # recency: 1 - age/T
    for _ in range(8):
        span = int(rng.integers(1, 50))
        current = int(rng.integers(span, span + 100))
        event = current - int(rng.integers(0, span + 1))
        want = 1.0 - (current - event) / span
        ok &= rel_err(recency_weight(event, current, span), want) <= 1e-9

    # TD error, via an independent scalar forward pass.
    for _ in range(8):
        w, b = float(rng.normal()), float(rng.normal())
        model = ModelParams((1, 1), np.array([w, b]))
        s, s_next = float(rng.normal()), float(rng.normal())
        r = -float(rng.uniform(0, 100))
        gamma = float(rng.uniform(0, 1))
        terminal = rng.uniform() < 0.5
        # A terminal's reward comes from its latency -r; a next state is
        # the root of a two-row block.
        buffer = ReplayBuffer(2)
        buffer.extend(
            PlanBlock(
                "q",
                0,
                -r,
                np.array([[s]] if terminal else [[s_next], [s]]),
                [-1] if terminal else [-1, 0],
            )
        )
        v_s = -(w * s + b)
        v_next = 0.0 if terminal else -(w * s_next + b)
        r_hat = math.copysign(math.log1p(abs(r)), r) if terminal else 0.0
        want = r_hat + gamma * v_next - v_s
        ok &= rel_err(td_error(buffer, model, gamma)[-1], want) <= 1e-9

    # normalization: (|d|^a - min) / (max - min)
    for _ in range(6):
        deltas = rng.normal(size=int(rng.integers(2, 12))) * 10
        alpha = float(rng.uniform(0.3, 2.5))
        powered = np.abs(deltas) ** alpha
        want = (powered - powered.min()) / (powered.max() - powered.min())
        got = normalize_td(deltas, alpha)
        ok &= max(rel_err(g, w) for g, w in zip(got, want)) <= 1e-9

    # hybrid weight: beta * d + (1 - beta) * tau
    for _ in range(8):
        d, tau, beta = rng.uniform(), rng.uniform(), rng.uniform()
        want = beta * d + (1 - beta) * tau
        got = experience_weight(d, tau, RetentionConfig(weighting="hybrid", beta_mix=beta))
        ok &= rel_err(got, want) <= 1e-9

    # probability normalization: w_i / sum(w)
    model = ModelParams((1, 1), np.array([1.0, 0.0]))
    for trial in range(5):
        n = int(rng.integers(2, 12))
        # Terminals of latency 0, so r = 0.
        items = []
        buffer = ReplayBuffer(64)
        for _ in range(n):
            state = np.array([[float(rng.normal() * 3)]])
            items.append(PlanBlock("q", int(rng.integers(0, 7)), 0.0, state, [-1]))
            buffer.extend(items[-1])
        _, stats = sample_replay(
            buffer,
            model,
            RetentionConfig(weighting="hybrid", beta_mix=0.5, k_replay=4, gamma=1.0, alpha_td=1.0),
            trial,
        )
        # Terminal with r = 0 under the identity model: delta = -V(s) = s.
        deltas = np.array([e.features[0, 0] for e in items])
        norm = normalize_td(deltas, 1.0)
        ages = np.array([e.iteration for e in items], dtype=float)
        span = max(1.0, ages.max() - ages.min())
        taus = 1.0 - (ages.max() - ages) / span
        weights = 0.5 * norm + 0.5 * taus
        want = weights / weights.sum()
        ok &= max(rel_err(g, w) for g, w in zip(stats.probabilities, want)) <= 1e-9

    # Halstead: (n1/2)(N/n2)log2(n1+n2)
    for i in range(6):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        counts_ops = {f"op{k}": int(rng.integers(1, 5)) for k in range(n1)}
        counts_rands = {f"val{k}": int(rng.integers(1, 5)) for k in range(n2)}
        q = make_query(
            f"hq{i}", ["a", "b"], [("a", "b")],
            operators=counts_ops, operands=counts_rands,
        )
        total = sum(counts_rands.values())
        want = (n1 / 2) * (total / n2) * math.log2(n1 + n2)
        ok &= rel_err(halstead_complexity(q), want) <= 1e-9

    # DBI: hand oracle
    for _ in range(5):
        k = int(rng.integers(2, 5))
        groups = [
            [rng.normal(size=4) + 6 * g for _ in range(int(rng.integers(1, 5)))]
            for g in range(k)
        ]
        from joinopt.transfer import PartitioningPolicy, TaskSet

        tasks, embeddings, idx = [], {}, 0
        for g in groups:
            ids = []
            for point in g:
                embeddings[f"q{idx}"] = point
                ids.append(f"q{idx}")
                idx += 1
            tasks.append(tuple(ids))
        centroids = [np.mean(g, axis=0) for g in groups]
        sigmas = [
            float(np.mean([np.linalg.norm(x - c) for x in g]))
            for g, c in zip(groups, centroids)
        ]
        want = float(
            np.mean(
                [
                    max(
                        (sigmas[i] + sigmas[j])
                        / max(1e-9, float(np.linalg.norm(centroids[i] - centroids[j])))
                        for j in range(k)
                        if j != i
                    )
                    for i in range(k)
                ]
            )
        )
        got = davies_bouldin(TaskSet(tuple(tasks), PartitioningPolicy.HALSTEAD), embeddings)
        ok &= rel_err(got, want) <= 1e-9

    # WRL: sum ratio
    for _ in range(5):
        keys = [f"k{i}" for i in range(int(rng.integers(1, 8)))]
        learned = {k: float(rng.uniform(1, 50)) for k in keys}
        expert = {k: float(rng.uniform(1, 50)) for k in keys}
        want = sum(learned.values()) / sum(expert.values())
        ok &= rel_err(wrl(learned, expert), want) <= 1e-9

    elapsed = time.perf_counter() - started
    report(1, "formula oracle suite", ok and elapsed < 1.0)


# ---------------------------------------------------------------------------
# 2. Sampling fidelity


def test_criterion_2_sampling_fidelity():
    started = time.perf_counter()
    model = ModelParams((1, 1), np.array([1.0, 0.0]))
    buffer = ReplayBuffer(16)
    # Terminal experiences with r = 0: |delta| = |state|; states chosen so
    # normalized weights are (0, 1, 2, 3, 4) / 10.
    for s in (0.0, 1.0, 2.0, 3.0, 4.0):
        buffer.extend(PlanBlock("q", 0, 0.0, np.array([[s]]), [-1]))
    _, stats = sample_replay(
        buffer,
        model,
        RetentionConfig(weighting="td_high", k_replay=100_000, gamma=1.0, alpha_td=1.0),
        424242,
    )
    expected = np.array([0.0, 0.1, 0.2, 0.3, 0.4]) / 0.1 / 10  # = (0,.1,.2,.3,.4)/1
    expected = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    expected = expected / expected.sum()
    assert stats.probabilities == pytest.approx(expected, abs=1e-12)
    counts = np.bincount(stats.sampled_indices, minlength=5)
    chi = scistats.chisquare(counts[1:], f_exp=expected[1:] * 100_000)
    elapsed = time.perf_counter() - started
    report(2, "multinomial sampling chi-square", counts[0] == 0 and chi.pvalue > 0.001 and elapsed < 5.0)


# ---------------------------------------------------------------------------
# 3. DP-expert optimality


def test_criterion_3_expert_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(33)
    cfg = CostModelConfig(noise_rel_sigma=0.0)
    ok = True
    for trial in range(200):
        n = int(rng.integers(2, 6))
        catalog, query = random_tree_catalog_and_query(rng, n, qid=f"t{trial}")
        ctx = QueryContext(query, catalog, cfg)
        dp_cost = ctx.cost(expert_plan(ctx))
        ok &= dp_cost == brute_force_min_cost(query, catalog, cfg)
        if not ok:
            break
    elapsed = time.perf_counter() - started
    report(3, "DP expert equals brute force (200 queries)", ok and elapsed < 30.0)


# ---------------------------------------------------------------------------
# 4. Gradient correctness


def test_criterion_4_gradient_correctness():
    from test_model import finite_difference_grad

    started = time.perf_counter()
    rng = np.random.default_rng(44)
    ok = True
    for trial in range(20):
        d = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 8))
        params = init_params((d, hidden, 1), int(rng.integers(100_000)))
        batch = (rng.normal(size=(5, d)), rng.normal(size=5) ** 2)
        grad = gradient(params, *batch)
        fd_w, fd_b = finite_difference_grad(params, batch)
        for got, want in zip(list(grad.weights) + list(grad.biases), fd_w + fd_b):
            denom = np.maximum(np.abs(want), 1e-6)
            ok &= bool((np.abs(got - want) / denom).max() <= 1e-4)
    elapsed = time.perf_counter() - started
    report(4, "analytic vs finite-difference gradients (20 models)", ok and elapsed < 10.0)


# ---------------------------------------------------------------------------
# 5. Partitioning contract


def test_criterion_5_partitioning_contract():
    started = time.perf_counter()
    cfg = CostModelConfig(noise_rel_sigma=0.0)
    ok = True
    for seed in range(50):
        import tempfile

        catalog_doc, train_doc, _ = generate(
            5, ("star", "chain", "snowflake")[seed % 3], 9, 0, seed=seed + 1,
            max_relations=4,
        )
        tmp = tempfile.mkdtemp()
        paths = write_files(tmp, catalog_doc, train_doc, {"queries": []})
        catalog = load_catalog(paths[0])
        workload = load_workload(paths[1], catalog)
        k = 2 + seed % 3
        contexts = [QueryContext(q, catalog, cfg) for q in workload]
        best = select_partitioning(contexts, k)
        scored = score_all_policies(contexts, k)
        ok &= best.dbi_score <= min(ts.dbi_score for ts in scored) + 1e-15
        embeddings = query_embeddings(contexts)
        ok &= abs(best.dbi_score - davies_bouldin(best, embeddings)) <= 1e-12
        for ts in scored:
            ids = [q for task in ts.tasks for q in task]
            ok &= len(ids) == len(set(ids)) == len(workload)
            ok &= all(len(t) == len(workload) // k for t in ts.tasks[:-1])
            ok &= len(ts.tasks[-1]) == len(workload) // k + len(workload) % k
    elapsed = time.perf_counter() - started
    report(5, "partition selection argmin + remainder rule (50 workloads)", ok and elapsed < 10.0)


# ---------------------------------------------------------------------------
# 6. MAML efficiency (directional)


def adaptation_steps(params, batch, lr, threshold, max_steps=400):
    for step in range(max_steps + 1):
        if batch_loss(params, *batch) <= threshold:
            return step
        params = stepped(params, gradient(params, *batch), lr)
    return max_steps + 1


def test_criterion_6_maml_efficiency():
    started = time.perf_counter()
    meta_steps, random_steps = [], []
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        tasks = []
        for _ in range(8):
            a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            X = rng.uniform(0, 1, size=(24, 1))
            tasks.append((X, a * X[:, 0] + b))
        a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        X = rng.uniform(0, 1, size=(24, 1))
        held_out = (X, a * X[:, 0] + b)
        params = init_params((1, 16, 1), seed)
        meta = maml_outer(
            params, tasks, inner_lr=0.05, outer_lr=0.02, n_inner=3, n_outer=120,
            batch_size=24, rng_seed=seed,
        )
        meta_steps.append(adaptation_steps(meta, held_out, 0.05, 0.05))
        random_steps.append(adaptation_steps(params, held_out, 0.05, 0.05))
    med_meta = statistics.median(meta_steps)
    med_random = statistics.median(random_steps)
    elapsed = time.perf_counter() - started
    print(f"  meta median steps={med_meta} random median steps={med_random}")
    report(6, "meta-init adapts in <= 1/3 the steps", med_meta <= med_random / 3 and elapsed < 120.0)


# ---------------------------------------------------------------------------
# 7 & 8. End-to-end directional experiments on the bundled workload
# (runs made once per module; criterion 9 checks the expert bound over all of them)


@pytest.fixture(scope="module")
def bundled_runs():
    cfg = load_run_config(f"{BUNDLE}/experiment.json")
    arms = {}
    timings = {}
    for name, arm_cfg in golden_runs.arm_configs(cfg).items():
        t0 = time.perf_counter()
        arms[name] = [
            run_training(arm_cfg, base_seed=arm_cfg.base_seed + r)
            for r in range(arm_cfg.repetitions)
        ]
        timings[name] = time.perf_counter() - t0
    return arms, timings


def regressions(runs):
    """Plateau + Rebound count over both splits, per run, as summary.csv
    records it."""
    return [row["regressions_total"] for row in summary_table(runs)[:-1]]


def test_criterion_7_retention_robustness(bundled_runs):
    arms, timings = bundled_runs
    hybrid = regressions(arms["hybrid"])
    noret = regressions(arms["no_retention"])
    strict = sum(1 for h, n in zip(hybrid, noret) if h < n)
    med_h, med_n = statistics.median(hybrid), statistics.median(noret)
    print(f"  hybrid={hybrid} no_retention={noret} strict_wins={strict}")
    elapsed = timings["hybrid"] + timings["no_retention"]
    report(
        7,
        "hybrid PER regressions <= no-retention (median; strict in >= 4/6)",
        med_h <= med_n and strict >= 4 and elapsed < 900.0,
    )


def test_criterion_8_transfer_efficiency(bundled_runs):
    arms, timings = bundled_runs
    maml_conv = [r.convergence() for r in arms["maml"]]
    rand_conv = [r.convergence() for r in arms["random_init"]]

    def median_conv(values):
        return statistics.median(math.inf if v is None else v for v in values)

    maml_nc = sum(1 for v in maml_conv if v is None)
    rand_nc = sum(1 for v in rand_conv if v is None)
    med_maml, med_rand = median_conv(maml_conv), median_conv(rand_conv)
    print(f"  maml={maml_conv} random={rand_conv}")
    elapsed = timings["maml"]
    report(
        8,
        "MAML convergence iteration <= random init; NC not worse",
        med_maml <= med_rand and maml_nc <= rand_nc and elapsed < 900.0,
    )


def test_criterion_9_expert_bound(bundled_runs):
    arms, _ = bundled_runs
    ok = True
    checked = 0
    for runs in arms.values():
        for run in runs:
            for record in run.records:
                for latencies in (record.train_latencies, record.test_latencies):
                    for qid, latency in latencies.items():
                        ok &= latency >= run.expert_noiseless[qid] - 1e-9
                        checked += 1
    print(f"  checked {checked} evaluated latencies")
    report(9, "evaluated latency >= expert DP latency (noiseless)", ok and checked > 0)


def test_bundled_runs_match_golden(bundled_runs):
    """Every evaluation record and the final parameters of the 24 runs equal
    those ``tools/golden_runs.py`` recorded in ``tests/golden_runs.json``."""
    arms, _ = bundled_runs
    recorded = json.loads(golden_runs.GOLDEN.read_text(encoding="utf-8"))
    faults = golden_runs.mismatches(recorded, arms)
    assert not faults, "\n".join(
        [*faults, f"recorded with {recorded['builds']}, running {golden_runs.builds()}"]
    )


# ---------------------------------------------------------------------------
# 10. Reproducibility of the CLI train command


def test_criterion_10_reproducibility(tmp_path):
    import shutil

    from joinopt.cli import main

    # Copy the bundle so relative paths in the config resolve.
    bundle_copy = tmp_path / "bundle"
    shutil.copytree(BUNDLE, bundle_copy)
    doc = json.loads((bundle_copy / "experiment.json").read_text())
    doc["iterations"] = 20
    doc["repetitions"] = 1
    config = bundle_copy / "quick.json"
    config.write_text(json.dumps(doc))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "rep0" / "run.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in lines]
        wall = rows[0].index("wall_clock_ms")
        outputs.append([tuple(v for i, v in enumerate(row) if i != wall) for row in rows])
    report(10, "byte-identical run.csv (wall clock excluded)", outputs[0] == outputs[1])
