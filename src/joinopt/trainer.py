"""End-to-end training loop: plan with the current value model, execute in
the simulator, extract experiences, replay-train, and periodically evaluate.

Planning is beam search over partial-plan states scored by the value model,
with epsilon-greedy exploration that collapses the beam onto one uniformly
random successor.  The beam keeps one entry per relation-set partition: the
best-scored of the successors that have joined the same relation sets.
Training feedback is noisy simulator latency; periodic evaluations are
greedy and noiseless, so every evaluated latency is bounded below by the
expert DP latency.  Set-up compiles each train and test query once into a
``simulator.QueryContext`` that the expert baselines, partition selection
and meta-task building share, so the expert DP runs once per query.  All
randomness is derived from one base seed, making repeated runs bitwise
identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import Catalog, Query, load_catalog, load_workload
from .features import fragment_features
from .metrics import (
    QueryTrace,
    Verdict,
    classify_query,
    convergence_iteration,
    wrl,
)
from .model import (
    ModelParams,
    TrainBatch,
    batch_grad,
    init_params,
    latency_to_label,
    predict_batch,
    sgd_step,
)
from .plans import Join, PlanNode, validate_plan
from .retention import (
    Experience,
    ReplayBuffer,
    WeightingPolicy,
    extract_experiences,
    sample_replay,
)
from .simulator import (
    CostModelConfig,
    ExpertBaseline,
    QueryContext,
    execute,
    expert_baseline,
    initial_fragments,
    join_fragments,
    noiseless_latency,
    plan_infos,
    successors,
)
from .transfer import (
    MetaTask,
    PartitioningPolicy,
    TaskSet,
    maml_outer,
    partition_workload,
    select_partitioning,
)

__all__ = [
    "ConfigError",
    "ModelConfig",
    "RetentionConfig",
    "TransferConfig",
    "SearchConfig",
    "RunConfig",
    "IterationRecord",
    "RunResult",
    "RepetitionResult",
    "load_run_config",
    "derive_seed",
    "plan_search",
    "random_rollout",
    "build_meta_tasks",
    "meta_initialize",
    "expert_baselines",
    "run_training",
    "run_repetitions",
    "evaluate_queries",
    "write_run_csv",
    "write_summary_csv",
    "write_verdicts_csv",
]

WALL_CLOCK_COLUMN = "wall_clock_ms"


class ConfigError(ValueError):
    """Raised before any work when a run configuration is invalid."""


def derive_seed(*parts) -> int:
    """Stable 32-bit seed from a mix of integers and strings."""
    entropy = []
    for part in parts:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class ModelConfig:
    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    minibatch: int = 64
    train_passes: int = 1  # passes over each iteration's training sample

    def __post_init__(self):
        if self.minibatch < 1:
            raise ConfigError("minibatch must be >= 1")
        if self.train_passes < 1:
            raise ConfigError("train_passes must be >= 1")


@dataclass(frozen=True)
class RetentionConfig:
    enabled: bool = True
    weighting: str = "hybrid"  # recency | td_low | td_high | hybrid
    beta_mix: float = 0.5
    alpha_td: float = 1.0
    gamma: float = 1.0
    k_replay: int = 256
    capacity: int = 20000

    def __post_init__(self):
        if self.alpha_td <= 0:
            raise ConfigError("alpha_td must be > 0")
        if not (0.0 <= self.gamma <= 1.0):
            raise ConfigError("gamma must lie in [0, 1]")
        if self.k_replay < 1:
            raise ConfigError("k_replay must be >= 1")
        if self.capacity < 1:
            raise ConfigError("capacity must be >= 1")
        self.policy()  # validates the weighting name and beta_mix

    def policy(self) -> WeightingPolicy:
        if self.weighting == "hybrid":
            return WeightingPolicy.hybrid(self.beta_mix)
        return WeightingPolicy(self.weighting)


@dataclass(frozen=True)
class TransferConfig:
    enabled: bool = True
    k_tasks: int = 4
    inner_lr: float = 1e-4
    outer_lr: float = 1e-4
    n_inner: int = 5
    n_outer: int = 150
    rollouts_per_query: int = 4
    batch_size: int = 64
    forced_policy: str | None = None  # bypass DBI selection for ablations


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 8
    epsilon: float = 0.5
    epsilon_decay: float = 0.95
    left_deep_only: bool = False

    def __post_init__(self):
        if self.beam_width < 1:
            raise ConfigError("beam_width must be >= 1")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ConfigError("epsilon must lie in [0, 1]")
        if not (0.0 <= self.epsilon_decay <= 1.0):
            raise ConfigError("epsilon_decay must lie in [0, 1]")


@dataclass(frozen=True)
class RunConfig:
    catalog_path: str
    train_workload_path: str
    test_workload_path: str
    cost_model: CostModelConfig = CostModelConfig()
    model: ModelConfig = ModelConfig()
    retention: RetentionConfig = RetentionConfig()
    transfer: TransferConfig = TransferConfig()
    search: SearchConfig = SearchConfig()
    iterations: int = 200
    eval_interval: int = 5
    base_seed: int = 1
    repetitions: int = 6
    baseline_runs: int = 10
    window_fraction: float = 0.1
    convergence_sustain: int = 3

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.eval_interval < 1:
            raise ConfigError("eval_interval must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.baseline_runs < 2:
            raise ConfigError("baseline_runs must be >= 2")
        if not (0.0 < self.window_fraction <= 1.0):
            raise ConfigError("window_fraction must lie in (0, 1]")
        if self.convergence_sustain < 1:
            raise ConfigError("convergence_sustain must be >= 1")


_SECTION_TYPES = {
    "cost_model": CostModelConfig,
    "model": ModelConfig,
    "retention": RetentionConfig,
    "transfer": TransferConfig,
    "search": SearchConfig,
}

_PATH_KEYS = {
    "catalog": "catalog_path",
    "train_workload": "train_workload_path",
    "test_workload": "test_workload_path",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON value accepted for each annotated field type: (description, check).
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[int, ...]": (
        "a list of positive integers",
        lambda v: isinstance(v, list) and all(_is_int(x) and x >= 1 for x in v),
    ),
}


def _check_type(key: str, value, annotation: str, where: str) -> None:
    expected, accepts = _FIELD_TYPES[annotation]
    if not accepts(value):
        raise ConfigError(f"{where}: {key!r} must be {expected}, got {json.dumps(value)}")


def _build_section(cls, doc: dict, where: str):
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        _check_type(key, value, types[key], where)
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_run_config(path) -> RunConfig:
    """Parse and validate a run-configuration JSON file.  Workload and
    catalog paths are resolved relative to the config file's directory.
    Unknown keys, values of the wrong JSON type (integer fields take no
    booleans, boolean fields no numbers) and out-of-range values are rejected
    by name, before any work."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{path}: config file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    scalar_types = {
        f.name: f.type
        for f in dataclasses.fields(RunConfig)
        if f.name not in _SECTION_TYPES and not f.name.endswith("_path")
    }
    kwargs = {}
    for key, value in doc.items():
        if key in _PATH_KEYS:
            _check_type(key, value, "str", str(path))
            kwargs[_PATH_KEYS[key]] = str((path.parent / value).resolve())
        elif key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: section {key!r} must be an object")
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, f"{path}: {key}")
        elif key in scalar_types:
            _check_type(key, value, scalar_types[key], str(path))
            kwargs[key] = value
        else:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for required in _PATH_KEYS:
        if _PATH_KEYS[required] not in kwargs:
            raise ConfigError(f"{path}: missing required key {required!r}")
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_to_doc(cfg: RunConfig) -> dict:
    """Resolved configuration as a JSON-serializable document."""
    doc = {
        "catalog": cfg.catalog_path,
        "train_workload": cfg.train_workload_path,
        "test_workload": cfg.test_workload_path,
    }
    for name in (
        "iterations",
        "eval_interval",
        "base_seed",
        "repetitions",
        "baseline_runs",
        "window_fraction",
        "convergence_sustain",
    ):
        doc[name] = getattr(cfg, name)
    for section, cls in _SECTION_TYPES.items():
        doc[section] = dataclasses.asdict(getattr(cfg, section))
    doc["model"]["hidden_sizes"] = list(cfg.model.hidden_sizes)
    return doc


# ---------------------------------------------------------------------------
# Plan search


@dataclass(frozen=True)
class _BeamEntry:
    infos: tuple  # the partial plan: FragmentInfo per fragment, in fragment order
    labels: dict  # predicted label per composite fragment, by relation-set mask
    score: float


def plan_search(
    query: Query,
    model: ModelParams,
    catalog: Catalog,
    cost_cfg: CostModelConfig,
    beam_width: int,
    epsilon: float,
    rng_seed: int,
    left_deep_only: bool = False,
) -> PlanNode:
    """Beam search over partial plans scored by the value model.

    Successor states are scored by the mean predicted label over their
    composite fragments, summed in fragment order (lower predicted latency
    wins).  The beam keeps at most one entry per relation-set partition, the
    best-scored one, so operator and child-order variants of one partition
    cannot crowd out other partitions.  With probability epsilon per step the
    beam collapses onto one uniformly random successor, so epsilon = 1
    degenerates to a uniform random legal rollout.
    Deterministic for a fixed seed.
    """
    ctx = QueryContext(query, catalog, cost_cfg)
    rng = np.random.default_rng(rng_seed) if epsilon > 0 else None
    beam = [_BeamEntry(initial_fragments(ctx), {}, 0.0)]
    for _ in range(len(ctx.relations) - 1):
        moves = []
        feature_rows = []
        for entry in beam:
            for i, j, op in successors(entry.infos, ctx, left_deep_only):
                joined, infos = join_fragments(entry.infos, i, j, op, ctx)
                moves.append((entry, joined, infos))
                feature_rows.append(fragment_features(joined, ctx))
        predicted = predict_batch(model, np.stack(feature_rows))
        expanded = []
        for (entry, joined, infos), label in zip(moves, predicted):
            labels = {m: v for m, v in entry.labels.items() if not m & joined.mask}
            labels[joined.mask] = float(label)
            score = sum(labels[f.mask] for f in infos if f.mask in labels) / len(labels)
            expanded.append(_BeamEntry(infos, labels, score))
        if rng is not None and rng.random() < epsilon:
            beam = [expanded[int(rng.integers(len(expanded)))]]
        else:
            expanded.sort(key=lambda e: e.score)
            best = {}  # first entry per partition is the best-scored
            for entry in expanded:
                best.setdefault(tuple(info.mask for info in entry.infos), entry)
            beam = list(best.values())[:beam_width]
    return beam[0].infos[0].node


def random_rollout(ctx: QueryContext, rng: np.random.Generator) -> PlanNode:
    """Uniformly random legal join sequence to a terminal plan."""
    fragments = initial_fragments(ctx)
    while len(fragments) > 1:
        moves = successors(fragments, ctx, False)
        i, j, op = moves[int(rng.integers(len(moves)))]
        _, fragments = join_fragments(fragments, i, j, op, ctx)
    return fragments[0].node


# ---------------------------------------------------------------------------
# Meta pretraining data

def build_meta_tasks(
    taskset: TaskSet,
    contexts: dict[str, QueryContext],
    rollouts_per_query: int,
    rng_seed: int,
) -> list[MetaTask]:
    """Meta-training pools from simulator-executed plans: for each query the
    expert DP plan plus uniform random rollouts, every join subplan (in
    post-order) labeled with the noiseless latency of its full plan."""
    rng = np.random.default_rng(rng_seed)
    meta_tasks = []
    for task in taskset.tasks:
        rows = []
        labels = []
        for qid in task:
            ctx = contexts[qid]
            plans = [ctx.expert()]
            plans += [random_rollout(ctx, rng) for _ in range(rollouts_per_query)]
            for plan in plans:
                infos = plan_infos(plan, ctx)
                label = latency_to_label(infos[-1].cost * ctx.cfg.latency_per_cost_unit)
                for info in infos:
                    if isinstance(info.node, Join):
                        rows.append(fragment_features(info, ctx))
                        labels.append(label)
        meta_tasks.append(MetaTask(np.stack(rows), np.array(labels)))
    return meta_tasks


def meta_initialize(
    cfg: RunConfig,
    train_contexts: list[QueryContext],
    params: ModelParams,
    base_seed: int,
) -> tuple[ModelParams, TaskSet]:
    """Partition the training workload (DBI-selected or forced policy) and
    run first-order MAML from the given initialization."""
    tc = cfg.transfer
    if tc.forced_policy is not None:
        policy = PartitioningPolicy(tc.forced_policy)
        taskset = partition_workload(train_contexts, policy, tc.k_tasks)
    else:
        taskset = select_partitioning(train_contexts, tc.k_tasks)
    meta_tasks = build_meta_tasks(
        taskset,
        {ctx.query.id: ctx for ctx in train_contexts},
        tc.rollouts_per_query,
        derive_seed(base_seed, "meta-data"),
    )
    params = maml_outer(
        params,
        meta_tasks,
        inner_lr=tc.inner_lr,
        outer_lr=tc.outer_lr,
        n_inner=tc.n_inner,
        n_outer=tc.n_outer,
        batch_size=tc.batch_size,
        rng_seed=derive_seed(base_seed, "maml"),
    )
    return params, taskset


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    train_latencies: dict[str, float]
    test_latencies: dict[str, float]
    wrl_train: float
    wrl_test: float
    buffer_size: int
    mean_sampled_norm_td: float
    mean_sampled_recency: float
    wall_clock_ms: float


@dataclass
class RunResult:
    config: RunConfig
    base_seed: int
    records: list[IterationRecord]
    params: ModelParams
    baselines: dict[str, ExpertBaseline]
    expert_noiseless: dict[str, float]
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    buffer: ReplayBuffer  # the replay buffer as training left it
    taskset: TaskSet | None = None

    def traces(self, split: str = "test") -> dict[str, QueryTrace]:
        ids = self.test_ids if split == "test" else self.train_ids
        out = {}
        for qid in ids:
            points = tuple(
                (rec.iteration, (rec.test_latencies if split == "test" else rec.train_latencies)[qid])
                for rec in self.records
            )
            out[qid] = QueryTrace(qid, points, self.baselines[qid])
        return out

    def verdicts(self, split: str = "test") -> dict[str, Verdict]:
        return {
            qid: classify_query(trace, self.config.window_fraction).verdict
            for qid, trace in self.traces(split).items()
        }

    def regression_count(self, split: str = "test") -> int:
        """Plateau + Rebound count over the split."""
        return sum(
            1 for v in self.verdicts(split).values() if v is not Verdict.SUPERIOR
        )

    def convergence(self) -> int | None:
        series = [
            (rec.iteration, sum(rec.test_latencies.values())) for rec in self.records
        ]
        expert_total = sum(self.baselines[q].mean_latency_ms for q in self.test_ids)
        tolerance = sum(self.baselines[q].tolerance_ms for q in self.test_ids)
        return convergence_iteration(
            series, expert_total, tolerance, self.config.convergence_sustain
        )

    def final_wrl(self, split: str = "test") -> float:
        rec = self.records[-1]
        return rec.wrl_test if split == "test" else rec.wrl_train


def expert_baselines(
    contexts: list[QueryContext], cfg: RunConfig, base_seed: int
) -> dict[str, ExpertBaseline]:
    """Expert baseline per query, the i-th context's executions seeded by
    ``derive_seed(base_seed, "baseline", i)``; ``train`` and ``eval`` both
    pass the train queries' contexts, then the test queries'."""
    return {
        ctx.query.id: expert_baseline(
            ctx,
            n_runs=cfg.baseline_runs,
            base_seed=derive_seed(base_seed, "baseline", idx),
        )
        for idx, ctx in enumerate(contexts)
    }


def evaluate_queries(
    queries: list[Query],
    params: ModelParams,
    catalog: Catalog,
    cfg: RunConfig,
    base_seed: int,
    iteration: int,
) -> dict[str, float]:
    """Greedy noiseless evaluation of every query; validates plan legality."""
    latencies = {}
    for idx, query in enumerate(queries):
        plan = plan_search(
            query,
            params,
            catalog,
            cfg.cost_model,
            beam_width=cfg.search.beam_width,
            epsilon=0.0,
            rng_seed=derive_seed(base_seed, "eval", iteration, idx),
            left_deep_only=cfg.search.left_deep_only,
        )
        covered = validate_plan(plan)
        if covered != frozenset(query.relations):
            raise RuntimeError(f"evaluation produced a partial plan for {query.id!r}")
        latencies[query.id] = noiseless_latency(plan, query, catalog, cfg.cost_model)
    return latencies


def _train_on(
    params: ModelParams,
    batch: TrainBatch,
    minibatch: int,
    lr: float,
    passes: int = 1,
) -> ModelParams:
    """SGD passes over the batch rows in order, in minibatch chunks."""
    chunks = [
        TrainBatch(batch.features[lo : lo + minibatch], batch.labels[lo : lo + minibatch])
        for lo in range(0, len(batch), minibatch)
    ]
    for _ in range(passes):
        for chunk in chunks:
            params = sgd_step(params, batch_grad(params, chunk), lr)
    return params


def run_training(cfg: RunConfig, base_seed: int | None = None) -> RunResult:
    """One training run; fully reproducible for a given config and seed."""
    seed = cfg.base_seed if base_seed is None else base_seed
    catalog = load_catalog(cfg.catalog_path)
    train_queries = load_workload(cfg.train_workload_path, catalog)
    test_queries = load_workload(cfg.test_workload_path, catalog)
    started = time.perf_counter()

    layer_sizes = (
        len(catalog.tables) + 8,
        *cfg.model.hidden_sizes,
        1,
    )
    params = init_params(layer_sizes, derive_seed(seed, "init"))
    contexts = [
        QueryContext(q, catalog, cfg.cost_model) for q in train_queries + test_queries
    ]
    taskset = None
    if cfg.transfer.enabled:
        params, taskset = meta_initialize(
            cfg, contexts[: len(train_queries)], params, seed
        )

    baselines = expert_baselines(contexts, cfg, seed)
    expert_noiseless = {ctx.query.id: ctx.latency(ctx.expert()) for ctx in contexts}

    expert_train = {q.id: baselines[q.id].mean_latency_ms for q in train_queries}
    expert_test = {q.id: baselines[q.id].mean_latency_ms for q in test_queries}

    buffer = ReplayBuffer(cfg.retention.capacity)
    policy = cfg.retention.policy()
    records: list[IterationRecord] = []
    last_norm_td = math.nan
    last_recency = math.nan

    def record(iteration: int):
        train_lat = evaluate_queries(train_queries, params, catalog, cfg, seed, iteration)
        test_lat = evaluate_queries(test_queries, params, catalog, cfg, seed, iteration)
        records.append(
            IterationRecord(
                iteration=iteration,
                train_latencies=train_lat,
                test_latencies=test_lat,
                wrl_train=wrl(train_lat, expert_train),
                wrl_test=wrl(test_lat, expert_test),
                buffer_size=len(buffer),
                mean_sampled_norm_td=last_norm_td,
                mean_sampled_recency=last_recency,
                wall_clock_ms=(time.perf_counter() - started) * 1000.0,
            )
        )

    record(0)
    epsilon = cfg.search.epsilon
    for iteration in range(1, cfg.iterations + 1):
        fresh: list[Experience] = []
        for qidx, query in enumerate(train_queries):
            plan = plan_search(
                query,
                params,
                catalog,
                cfg.cost_model,
                beam_width=cfg.search.beam_width,
                epsilon=epsilon,
                rng_seed=derive_seed(seed, "search", iteration, qidx),
                left_deep_only=cfg.search.left_deep_only,
            )
            latency = execute(
                plan,
                query,
                catalog,
                cfg.cost_model,
                derive_seed(seed, "exec", iteration, qidx),
            )
            experiences = extract_experiences(
                plan, query, catalog, cfg.cost_model, latency, iteration
            )
            fresh.extend(experiences)
            buffer.extend(experiences)
        if cfg.retention.enabled:
            batch, stats = sample_replay(
                buffer,
                params,
                policy,
                cfg.retention.k_replay,
                cfg.retention.gamma,
                cfg.retention.alpha_td,
                derive_seed(seed, "replay", iteration),
            )
            last_norm_td = stats.mean_sampled_norm_td
            last_recency = stats.mean_sampled_recency
        else:
            # Ablation arm: same sample budget, but drawn uniformly from the
            # current iteration's experiences only (no history, no priorities).
            current = ReplayBuffer(len(fresh))
            current.extend(fresh)
            rng = np.random.default_rng(derive_seed(seed, "replay", iteration))
            batch = current.batch(
                rng.integers(0, len(current), size=cfg.retention.k_replay), 1.0
            )
        params = _train_on(
            params, batch, cfg.model.minibatch,
            cfg.model.learning_rate, cfg.model.train_passes,
        )
        epsilon *= cfg.search.epsilon_decay
        if iteration % cfg.eval_interval == 0 or iteration == cfg.iterations:
            record(iteration)

    return RunResult(
        config=cfg,
        base_seed=seed,
        records=records,
        params=params,
        baselines=baselines,
        expert_noiseless=expert_noiseless,
        train_ids=tuple(q.id for q in train_queries),
        test_ids=tuple(q.id for q in test_queries),
        buffer=buffer,
        taskset=taskset,
    )


# ---------------------------------------------------------------------------
# Repetitions and summaries


@dataclass
class RepetitionResult:
    runs: list[RunResult]

    def median_final_wrl(self, split: str = "test") -> float:
        return statistics.median(run.final_wrl(split) for run in self.runs)

    def median_regressions(self, split: str = "test") -> float:
        return statistics.median(run.regression_count(split) for run in self.runs)

    def convergence_iterations(self) -> list[int | None]:
        return [run.convergence() for run in self.runs]

    def median_convergence(self) -> float | None:
        values = [
            math.inf if c is None else float(c) for c in self.convergence_iterations()
        ]
        med = statistics.median(values)
        return None if math.isinf(med) else med

    def median_wrl_curve(self, split: str = "test") -> list[tuple[int, float]]:
        """Median WRL across repetitions at each evaluated iteration; all
        repetitions share the evaluation schedule."""
        curve = []
        for idx, rec in enumerate(self.runs[0].records):
            values = [
                run.records[idx].wrl_test if split == "test" else run.records[idx].wrl_train
                for run in self.runs
            ]
            curve.append((rec.iteration, statistics.median(values)))
        return curve

    def no_convergence_count(self) -> int:
        return sum(1 for c in self.convergence_iterations() if c is None)


def run_repetitions(cfg: RunConfig, n_reps: int | None = None) -> RepetitionResult:
    """Repeated runs with seeds base_seed .. base_seed + n - 1."""
    reps = cfg.repetitions if n_reps is None else n_reps
    if reps < 1:
        raise ConfigError("repetitions must be >= 1")
    runs = [run_training(cfg, base_seed=cfg.base_seed + r) for r in range(reps)]
    return RepetitionResult(runs)


# ---------------------------------------------------------------------------
# CSV export


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_csv(result: RunResult, path) -> None:
    """One row per evaluation record.  The wall-clock column is last and is
    excluded from reproducibility comparisons."""
    columns = [
        "iteration",
        "wrl_train",
        "wrl_test",
        "buffer_size",
        "mean_sampled_norm_td",
        "mean_sampled_recency",
    ]
    columns += [f"train_latency_ms:{qid}" for qid in result.train_ids]
    columns += [f"test_latency_ms:{qid}" for qid in result.test_ids]
    columns.append(WALL_CLOCK_COLUMN)
    lines = [",".join(columns)]
    for rec in result.records:
        row = [
            _fmt(rec.iteration),
            _fmt(rec.wrl_train),
            _fmt(rec.wrl_test),
            _fmt(rec.buffer_size),
            _fmt(rec.mean_sampled_norm_td),
            _fmt(rec.mean_sampled_recency),
        ]
        row += [_fmt(rec.train_latencies[qid]) for qid in result.train_ids]
        row += [_fmt(rec.test_latencies[qid]) for qid in result.test_ids]
        row.append(_fmt(rec.wall_clock_ms))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_csv(result: RepetitionResult, path) -> None:
    """Per-repetition summary plus a final median row."""
    columns = [
        "rep",
        "seed",
        "final_wrl_train",
        "final_wrl_test",
        "convergence_iteration",
        "plateau_test",
        "rebound_test",
        "plateau_train",
        "rebound_train",
        "regressions_total",
    ]
    lines = [",".join(columns)]
    for rep, run in enumerate(result.runs):
        test_v = run.verdicts("test")
        train_v = run.verdicts("train")
        conv = run.convergence()
        lines.append(
            ",".join(
                [
                    str(rep),
                    str(run.base_seed),
                    _fmt(run.final_wrl("train")),
                    _fmt(run.final_wrl("test")),
                    "NC" if conv is None else str(conv),
                    str(sum(1 for v in test_v.values() if v is Verdict.PLATEAU)),
                    str(sum(1 for v in test_v.values() if v is Verdict.REBOUND)),
                    str(sum(1 for v in train_v.values() if v is Verdict.PLATEAU)),
                    str(sum(1 for v in train_v.values() if v is Verdict.REBOUND)),
                    str(run.regression_count("test") + run.regression_count("train")),
                ]
            )
        )
    median_conv = result.median_convergence()
    lines.append(
        ",".join(
            [
                "median",
                "",
                _fmt(statistics.median(r.final_wrl("train") for r in result.runs)),
                _fmt(result.median_final_wrl("test")),
                "NC" if median_conv is None else _fmt(median_conv),
                _fmt(statistics.median(
                    sum(1 for v in r.verdicts("test").values() if v is Verdict.PLATEAU)
                    for r in result.runs
                )),
                _fmt(statistics.median(
                    sum(1 for v in r.verdicts("test").values() if v is Verdict.REBOUND)
                    for r in result.runs
                )),
                _fmt(statistics.median(
                    sum(1 for v in r.verdicts("train").values() if v is Verdict.PLATEAU)
                    for r in result.runs
                )),
                _fmt(statistics.median(
                    sum(1 for v in r.verdicts("train").values() if v is Verdict.REBOUND)
                    for r in result.runs
                )),
                _fmt(statistics.median(
                    r.regression_count("test") + r.regression_count("train")
                    for r in result.runs
                )),
            ]
        )
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_verdicts_csv(result: RepetitionResult, path) -> None:
    columns = [
        "rep",
        "split",
        "query_id",
        "verdict",
        "first_superior_iteration",
        "regression_iteration",
    ]
    lines = [",".join(columns)]
    for rep, run in enumerate(result.runs):
        for split in ("train", "test"):
            for qid, trace in sorted(run.traces(split).items()):
                verdict = classify_query(trace, run.config.window_fraction)
                lines.append(
                    ",".join(
                        [
                            str(rep),
                            split,
                            qid,
                            verdict.verdict.value,
                            ""
                            if verdict.first_superior_iteration is None
                            else str(verdict.first_superior_iteration),
                            ""
                            if verdict.regression_iteration is None
                            else str(verdict.regression_iteration),
                        ]
                    )
                )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
