"""End-to-end training loop: plan with the current value model, execute in
the simulator, extract experiences, replay-train, and periodically evaluate.

Planning is beam search over partial-plan states scored by the value model,
with epsilon-greedy exploration that collapses the beam onto one uniformly
random successor.  The beam keeps one entry per relation-set partition: the
best-scored of the successors that have joined the same relation sets.
Each step scores every successor of the beam as one feature matrix in one
forward pass, and builds plan fragments only for the successors it keeps.
``search_plans`` searches a list of contexts under one model with one
shared table of scored steps; a training iteration's train searches are
one such call, and an evaluation's searches of train and test queries
another.
Training feedback is noisy simulator latency; periodic evaluations are
greedy and noiseless, so every evaluated latency is bounded below by the
expert DP latency.  ``prepare_run`` is the set-up of every command: it
compiles each train and test query once into a ``simulator.QueryContext``
that the expert baselines, partition selection, meta-task building, plan
search and evaluation share (``search_plans`` hands each search its
context), so the expert DP runs once per query and cardinalities are
estimated once per relation set.  ``RunHistory``
judges a run's evaluation records, whether the run just trained or its
run.csv was read back; ``read_run_csv`` is the one check of a history read
from a file.  Every table joinopt writes, run.csv, summary.csv and
verdicts.csv here and the reports of ``cli``, goes through ``write_csv``.
All randomness is derived from one base seed, making repeated runs bitwise
identical: ``derive_seeds`` applies numpy's SeedSequence mix to many rows
of seed parts at once, and ``generator_states`` turns seeds into the PCG64
states ``np.random.default_rng`` would seed.  So a training iteration
derives the search and execution states of all its train queries in one
pass, sets each on one reused generator before the search or execution it
seeds, and writes all its plans' blocks to the replay ring in one
``extend``.  It executes its plans after its searches (``execute_plans``),
and walks and featurizes each distinct plan object once: the queries of a
shape that take one decision path get one plan object from the shared
search steps.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import Catalog, Query, WorkloadError, _build, _load_json, load_catalog, load_workload
from .features import feature_dim, feature_matrix, fragment_rows
from .metrics import (
    RobustnessVerdict,
    Verdict,
    classify_query,
    convergence_iteration,
    wrl,
)
from .model import (
    ModelParams,
    batch_grad,
    check_finite,
    init_params,
    latency_to_label,
    predict_batch,
    sgd_step,
)
from .plans import JOIN_OPS, Join, PlanNode
from .retention import (
    PlanBlock,
    ReplayBuffer,
    RetentionConfig,
    extract_experiences,
    fresh_batch,
    sample_replay,
)
from .simulator import (
    CostModelConfig,
    ExpertBaseline,
    QueryContext,
    execute,
    expert_baseline,
    join_columns,
    legal_pairs,
    plan_infos,
)
from .transfer import (
    PartitioningPolicy,
    TaskSet,
    maml_outer,
    score_all_policies,
    select_partitioning,
)

__all__ = [
    "ConfigError",
    "ModelConfig",
    "TransferConfig",
    "SearchConfig",
    "RunConfig",
    "IterationRecord",
    "RunHistory",
    "RunResult",
    "RunSetup",
    "load_run_config",
    "derive_seed",
    "derive_seeds",
    "generator_states",
    "plan_search",
    "search_plans",
    "random_rollout",
    "build_meta_tasks",
    "meta_initialize",
    "prepare_run",
    "execute_plans",
    "run_training",
    "run_repetitions",
    "evaluate_queries",
    "write_csv",
    "write_run_csv",
    "read_run_csv",
    "summary_table",
    "write_summary_csv",
    "write_verdicts_csv",
]

WALL_CLOCK_COLUMN = "wall_clock_ms"


class ConfigError(ValueError):
    """Raised before any work when a run configuration is invalid."""


# numpy's SeedSequence constants: the hash of entropy words into the pool
# (A), the hash of the pool into output words (B) and the mix of two words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier (O'Neill, "PCG", 2014).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _word_column(parts) -> np.ndarray:
    """One part of every row as a 32-bit word: a string's crc32, taken once
    per distinct string, and any other part masked to 32 bits in one pass."""
    crcs = {p: zlib.crc32(p.encode("utf-8")) for p in set(parts) if isinstance(p, str)}
    if crcs:
        parts = [crcs.get(p, p) for p in parts]
    return (np.array(parts, dtype=object) & _MASK32).astype(np.uint32)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's first ``count`` hashes' (xor, multiplier) constants, as
    columns; they do not depend on the words hashed."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = init * mult & _MASK32
        mults.append(init)
    return np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None]


def _seed_sequence(words: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` uint32 words numpy's ``SeedSequence`` generates
    from each column of ``words`` (one entropy word per row), as an
    (n_words, columns) array.  The uint32 hash and mix run once over every
    column, each pool word an array, so no uint32 scalar overflows (under
    numpy 2 that warns)."""
    pool = np.zeros((_POOL, words.shape[1]), dtype=np.uint32)  # a missing word is hashed as 0
    pool[: len(words)] = words[:_POOL]
    # Four hashes fill the pool, twelve mix it, and four take in each word
    # beyond the pool.
    xors, mults = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + max(0, len(words) - _POOL)))
    used = 0

    def hashmix(values, count):  # the next ``count`` hashes, one per row of values
        nonlocal used
        hashed = (values ^ xors[used : used + count]) * mults[used : used + count]
        used += count
        return hashed ^ hashed >> 16

    def mix(x, y):
        mixed = x * _MIX_L - y * _MIX_R
        return mixed ^ mixed >> 16

    pool = hashmix(pool, _POOL)
    for src in range(_POOL):
        # Every other pool word takes in this one, which none of them changes.
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for word in words[_POOL:]:
        pool = mix(pool, hashmix(word, _POOL))
    # Output word i hashes pool word i mod 4.
    xors, mults = _hash_constants(_INIT_B, _MULT_B, n_words)
    out = (pool[np.arange(n_words) % _POOL] ^ xors) * mults
    return out ^ out >> 16


def derive_seeds(rows) -> list[int]:
    """Stable 32-bit seed per row of integers and strings, all rows of one
    length: the first word numpy's ``SeedSequence(words)`` generates, where
    a row's words are a string's crc32 and an integer masked to 32 bits.
    The words are built column by column and hashed in one pass over every
    row (``_seed_sequence``)."""
    width = len(rows[0]) if rows else 0
    words = np.zeros((width, len(rows)), dtype=np.uint32)
    for i, column in enumerate(zip(*rows, strict=True)):
        words[i] = _word_column(column)
    return _seed_sequence(words, 1)[0].tolist()


def generator_states(seeds) -> list[dict]:
    """Per 32-bit seed, the state ``np.random.default_rng(seed).bit_generator``
    holds, computed rather than constructed: PCG64 seeds itself with
    ``SeedSequence([seed]).generate_state(8)`` paired into four uint64 words,
    low word first, as ``initstate = w0 << 64 | w1`` and ``initseq = w2 << 64
    | w3``, then runs two steps of its LCG from state 0 with increment
    ``2 * initseq + 1``, adding ``initstate`` between them.  A ``Generator``
    whose ``bit_generator.state`` is set to one draws as ``default_rng(seed)``
    does.  All seeds take one pass of the SeedSequence hash."""
    words = _seed_sequence(np.array(seeds, dtype=np.uint32)[None], 8).astype(np.uint64)
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*(words[0::2] | words[1::2] << 32).tolist()):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
             "has_uint32": 0, "uinteger": 0}
        )
    return states


def derive_seed(*parts) -> int:
    """Stable 32-bit seed from a mix of integers and strings:
    ``derive_seeds([parts])[0]``."""
    return derive_seeds([parts])[0]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class ModelConfig:
    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    minibatch: int = 64
    train_passes: int = 1  # passes over each iteration's training sample

    def __post_init__(self):
        _require(self.learning_rate > 0, "learning_rate must be > 0")
        _require(self.minibatch >= 1, "minibatch must be >= 1")
        _require(self.train_passes >= 1, "train_passes must be >= 1")


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

    def __post_init__(self):
        _require(self.k_tasks >= 2, "k_tasks must be >= 2")
        _require(self.inner_lr > 0, "inner_lr must be > 0")
        _require(self.outer_lr > 0, "outer_lr must be > 0")
        _require(self.n_inner >= 0, "n_inner must be >= 0")
        _require(self.n_outer >= 1, "n_outer must be >= 1")
        _require(self.rollouts_per_query >= 0, "rollouts_per_query must be >= 0")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        policies = [p.value for p in PartitioningPolicy]
        _require(
            self.forced_policy in (None, *policies),
            f"forced_policy must be null or one of {policies}",
        )


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 8
    epsilon: float = 0.5
    epsilon_decay: float = 0.95
    left_deep_only: bool = False

    def __post_init__(self):
        _require(self.beam_width >= 1, "beam_width must be >= 1")
        _require(0.0 <= self.epsilon <= 1.0, "epsilon must lie in [0, 1]")
        _require(0.0 <= self.epsilon_decay <= 1.0, "epsilon_decay must lie in [0, 1]")


def _path_field(key: str):
    """A path, spelled ``key`` in the config file and resolved against the
    file's directory."""
    return field(metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    catalog_path: str = _path_field("catalog")
    train_workload_path: str = _path_field("train_workload")
    test_workload_path: str = _path_field("test_workload")
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
        _require(self.iterations >= 1, "iterations must be >= 1")
        _require(self.eval_interval >= 1, "eval_interval must be >= 1")
        _require(self.repetitions >= 1, "repetitions must be >= 1")
        _require(self.baseline_runs >= 2, "baseline_runs must be >= 2")
        _require(0.0 < self.window_fraction <= 1.0, "window_fraction must lie in (0, 1]")
        _require(self.convergence_sustain >= 1, "convergence_sustain must be >= 1")


def load_run_config(path) -> RunConfig:
    """Parse and validate a run-configuration JSON file.  Workload and
    catalog paths are resolved relative to the config file's directory.
    Unknown keys, values of the wrong JSON type (integer fields take no
    booleans, boolean fields no numbers) and out-of-range values are rejected
    by name, before any work."""
    path = Path(path)
    return _build(RunConfig, _load_json(path, ConfigError), str(path), ConfigError, path.parent)


def config_to_doc(cfg: RunConfig) -> dict:
    """Resolved configuration as a JSON-serializable document, spelled as
    ``load_run_config`` reads it."""
    doc = dataclasses.asdict(cfg)
    for f in dataclasses.fields(RunConfig):
        if "key" in f.metadata:
            doc[f.metadata["key"]] = doc.pop(f.name)
    doc["model"]["hidden_sizes"] = list(cfg.model.hidden_sizes)
    return doc


# ---------------------------------------------------------------------------
# Plan search


@dataclass(frozen=True)
class _BeamEntry:
    infos: tuple  # the partial plan: FragmentInfo per fragment, in fragment order
    labels: tuple  # (mask, predicted label) per composite fragment, in fragment order


_GREEDY = -1  # a decision path's mark of a greedy step; a draw marks its successor's index


class _Step:
    """One scored beam step: the legal (beam entry, left, right) moves,
    their joins' ``JoinColumns`` and each join's predicted label, in
    (entry, legal pair, operator) order, and, once a search has taken the
    greedy branch from it, the next beam."""

    def __init__(self, beam: list[_BeamEntry], ctx: QueryContext, model: ModelParams,
                 left_deep_only: bool):
        self.moves = [
            (entry, i, j)
            for entry in beam
            for i, j in legal_pairs(entry.infos, ctx, left_deep_only)
        ]
        columns = self.columns = join_columns(
            [(e.infos[i], e.infos[j]) for e, i, j in self.moves], ctx
        )
        self.predicted = predict_batch(
            model, feature_matrix(ctx, columns.masks, columns.depths, columns.op_counts,
                                  columns.costs)
        ).tolist()
        self.beam: list[_BeamEntry] | None = None

    def successor(self, k: int) -> _BeamEntry:
        entry, i, j = self.moves[k // len(JOIN_OPS)]
        joined, infos = self.columns.joined(entry.infos, k, i, j)
        labels = [(m, v) for m, v in entry.labels if not m & joined.mask]
        labels.append((joined.mask, self.predicted[k]))
        return _BeamEntry(infos, tuple(sorted(labels, key=lambda mv: mv[0] & -mv[0])))

    def greedy(self, beam_width: int) -> list[_BeamEntry]:
        """The next beam: the best-scored successor of each of the
        ``beam_width`` best partitions, computed by the first call."""
        if self.beam is not None:
            return self.beam
        moves, masks, predicted = self.moves, self.columns.masks, self.predicted
        n_ops = len(JOIN_OPS)
        scores, best = [], []
        for p, ((entry, _, _), mask) in enumerate(zip(moves, masks)):
            # The successors' composite labels in fragment order: the
            # entry's untouched ones, with the join's at its lowest bit.
            # With none untouched, a successor's mean is its join's label.
            labels = predicted[n_ops * p : n_ops * (p + 1)]
            low = mask & -mask
            before, after = [], []
            for m, v in entry.labels:
                if not m & mask:
                    (before if m & -m < low else after).append(v)
            if before or after:
                count = len(before) + 1 + len(after)
                labels = [sum(before + [label] + after) / count for label in labels]
            scores.append(labels)
            best.append(min(labels))
        # A pair's three joins share its partition, so only the first
        # best-scored of them can enter the beam.
        beam = []
        partitions = set()
        for p in sorted(range(len(best)), key=best.__getitem__):
            entry, _, _ = moves[p]
            mask = masks[p]
            partition = frozenset(
                [f.mask for f in entry.infos if not f.mask & mask] + [mask]
            )
            if partition not in partitions:
                partitions.add(partition)
                beam.append(self.successor(n_ops * p + scores[p].index(best[p])))
                if len(beam) == beam_width:
                    break
        self.beam = beam
        return beam


def plan_search(
    query: Query | QueryContext,
    model: ModelParams,
    catalog: Catalog,
    cost_cfg: CostModelConfig,
    beam_width: int,
    epsilon: float,
    rng_seed: int | np.random.Generator,
    left_deep_only: bool = False,
    states: dict | None = None,
) -> PlanNode:
    """Beam search over partial plans scored by the value model.

    Successor states are scored by the mean predicted label over their
    composite fragments, summed in fragment order (lower predicted latency
    wins).  The beam keeps at most one entry per relation-set partition, the
    best-scored one, so operator and child-order variants of one partition
    cannot crowd out other partitions.  With probability epsilon per step the
    beam collapses onto one uniformly random successor, so epsilon = 1
    degenerates to a uniform random legal rollout.
    ``rng_seed`` is anything ``np.random.default_rng`` takes: a seed, or a
    ``Generator``, which draws from its current state.  Deterministic for a
    fixed seed or generator state.

    Each step summarizes every legal (beam entry, left, right) pair once,
    by all three operators, with ``join_columns``; featurizes those joins
    (entry, then legal pair, then operator) as one matrix and scores it with
    one ``predict_batch``; and builds fragments only for the successors the
    beam keeps, from their pairs' summaries.  ``query`` is a compiled
    context, or a query, which is compiled against ``catalog`` and
    ``cost_cfg`` for this search; given a context, the search reads neither.

    ``states`` is the table of scored steps that ``search_plans`` keeps
    for the searches of one model, beam width and ``left_deep_only``,
    keyed by context ``shape`` and then by decision path: per step so far,
    the successor index a draw collapsed the beam onto, or a greedy mark.
    The first search to reach a path scores its step, and later searches of
    the shape read it, so every search of the shape gets the rows the same
    matmuls scored and returns the plan it would alone; each still makes
    its own draws.  Without a table, as when serving a query, the search
    runs the same steps and keeps none of them: kept, a served 12-relation
    query's steps made its search about 3% slower.
    """
    ctx = query if isinstance(query, QueryContext) else QueryContext(query, catalog, cost_cfg)
    rng = np.random.default_rng(rng_seed) if epsilon > 0 else None
    steps = {} if states is None else states.setdefault(ctx.shape, {})
    beam = [_BeamEntry(ctx.scans, ())]
    path = ()
    for _ in range(len(ctx.relations) - 1):
        step = steps.get(path)
        if step is None:
            step = _Step(beam, ctx, model, left_deep_only)
            if states is not None:  # alone, a search reaches no path twice
                steps[path] = step
        if rng is not None and rng.random() < epsilon:
            k = int(rng.integers(len(step.predicted)))
            beam, path = [step.successor(k)], path + (k,)
        else:
            beam, path = step.greedy(beam_width), path + (_GREEDY,)
    return beam[0].infos[0].node


def random_rollout(ctx: QueryContext, rng: np.random.Generator) -> PlanNode:
    """Uniformly random legal join sequence to a terminal plan."""
    fragments = ctx.scans
    while len(fragments) > 1:
        # One draw over every (pair, operator) move, operators innermost.
        pairs = legal_pairs(fragments, ctx, False)
        k = int(rng.integers(len(JOIN_OPS) * len(pairs)))
        i, j = pairs[k // len(JOIN_OPS)]
        _, fragments = join_columns([(fragments[i], fragments[j])], ctx).joined(
            fragments, k % len(JOIN_OPS), i, j
        )
    return fragments[0].node


# ---------------------------------------------------------------------------
# Meta pretraining data

def build_meta_tasks(
    taskset: TaskSet,
    contexts: dict[str, QueryContext],
    rollouts_per_query: int,
    rng_seed: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One meta task per task of the partition, a (features, labels) pair
    pooling rows from simulator-executed plans: for each query the expert DP
    plan plus uniform random rollouts, every join subplan (in post-order)
    labeled with the noiseless latency of its full plan."""
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
                joins = [info for info in infos if isinstance(info.node, Join)]
                rows.append(fragment_rows(joins, ctx))
                labels += [label] * len(joins)
        meta_tasks.append((np.concatenate(rows), np.array(labels)))
    return meta_tasks


def meta_initialize(
    cfg: RunConfig,
    train_contexts: list[QueryContext],
    params: ModelParams,
    base_seed: int,
) -> tuple[ModelParams, TaskSet]:
    """Partition the training workload (DBI-selected, or by the forced
    policy and then DBI-scored) and run first-order MAML from the given
    initialization."""
    tc = cfg.transfer
    if tc.forced_policy is None:
        taskset = select_partitioning(train_contexts, tc.k_tasks)
    else:
        policy = PartitioningPolicy(tc.forced_policy)
        scored = score_all_policies(train_contexts, tc.k_tasks)
        taskset = next(t for t in scored if t.policy is policy)
    meta_tasks = build_meta_tasks(
        taskset,
        {ctx.query.id: ctx for ctx in train_contexts},
        tc.rollouts_per_query,
        derive_seed(base_seed, "meta-data"),
    )
    params = maml_outer(
        params, meta_tasks,
        inner_lr=tc.inner_lr,
        outer_lr=tc.outer_lr,
        n_inner=tc.n_inner,
        n_outer=tc.n_outer,
        batch_size=tc.batch_size,
        rng_seed=derive_seed(base_seed, "maml"),
    )
    return check_finite(params, "iteration 0: maml"), taskset


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
class RunHistory:
    """A run's evaluation records judged against its expert baselines: the
    per-query robustness verdicts and convergence iteration that ``train``
    writes and ``eval --history`` reads back."""

    config: RunConfig
    records: list[IterationRecord]
    baselines: dict[str, ExpertBaseline]
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def verdicts(self, split: str = "test") -> dict[str, RobustnessVerdict]:
        """Each ``split`` ("train" or "test") query's verdict."""
        return {
            qid: classify_query(
                [(rec.iteration, getattr(rec, f"{split}_latencies")[qid]) for rec in self.records],
                self.baselines[qid],
                self.config.window_fraction,
            )
            for qid in getattr(self, f"{split}_ids")
        }

    def convergence(self) -> int | None:
        series = [(rec.iteration, sum(rec.test_latencies.values())) for rec in self.records]
        expert_total = sum(self.baselines[q].mean_latency_ms for q in self.test_ids)
        tolerance = sum(self.baselines[q].tolerance_ms for q in self.test_ids)
        return convergence_iteration(
            series, expert_total, tolerance, self.config.convergence_sustain
        )

    def final_wrl(self, split: str = "test") -> float:
        return getattr(self.records[-1], f"wrl_{split}")

    def first_foreign_record(self) -> IterationRecord | None:
        """The first record whose WRLs are not its latencies' WRLs against
        these baselines, as recorded under other baselines (another seed);
        None when every record agrees."""
        expert = {
            split: {q: self.baselines[q].mean_latency_ms for q in ids}
            for split, ids in (("train", self.train_ids), ("test", self.test_ids))
        }
        for rec in self.records:
            if (rec.wrl_train, rec.wrl_test) != (
                wrl(rec.train_latencies, expert["train"]),
                wrl(rec.test_latencies, expert["test"]),
            ):
                return rec
        return None


@dataclass
class RunResult(RunHistory):
    base_seed: int
    params: ModelParams
    expert_noiseless: dict[str, float]
    buffer: ReplayBuffer  # the replay buffer as training left it, less its TD pass buffers


@dataclass(frozen=True)
class RunSetup:
    """What every command starts from: the catalog and one compiled context
    per train and test query."""

    config: RunConfig
    seed: int
    catalog: Catalog
    train: list[QueryContext]
    test: list[QueryContext]

    def baselines(self) -> dict[str, ExpertBaseline]:
        """Expert baseline per query, train queries then test queries, the
        i-th one's executions seeded by ``derive_seed(seed, "baseline", i)``,
        all derived in one ``derive_seeds``."""
        contexts = self.train + self.test
        seeds = derive_seeds([(self.seed, "baseline", idx) for idx in range(len(contexts))])
        return {
            ctx.query.id: expert_baseline(ctx, n_runs=self.config.baseline_runs, base_seed=seed)
            for ctx, seed in zip(contexts, seeds)
        }

    def initial_params(self) -> ModelParams:
        """The run's initial model, seeded by ``derive_seed(seed, "init")``;
        only the commands that train build it."""
        layer_sizes = (feature_dim(self.catalog), *self.config.model.hidden_sizes, 1)
        return init_params(layer_sizes, derive_seed(self.seed, "init"))


def prepare_run(cfg: RunConfig, seed: int) -> RunSetup:
    """Load the catalog and both workloads and compile each query.  The
    compiled contexts register themselves, so ``plan_search`` and the expert
    DP use them for as long as the set-up is held.  An empty workload, and a test
    query with a train query's id, raise WorkloadError: baselines and
    expert latencies are keyed by query id."""
    catalog = load_catalog(cfg.catalog_path)
    paths = (cfg.train_workload_path, cfg.test_workload_path)
    workloads = [load_workload(path, catalog) for path in paths]
    for path, queries in zip(paths, workloads):
        if not queries:
            raise WorkloadError(f"{path}: 'queries' must not be empty")
    train_ids = {q.id for q in workloads[0]}
    for i, query in enumerate(workloads[1]):
        if query.id in train_ids:
            raise WorkloadError(
                f"{paths[1]}: queries[{i}]: id {query.id!r} is also a train query's id "
                f"in {paths[0]}"
            )
    train, test = ([QueryContext(q, catalog, cfg.cost_model) for q in w] for w in workloads)
    return RunSetup(cfg, seed, catalog, train, test)


def search_plans(
    contexts: list[QueryContext],
    params: ModelParams,
    cfg: RunConfig,
    epsilon: float = 0.0,
    rng: np.random.Generator | None = None,
    rng_states: list[dict] | None = None,
) -> list[PlanNode]:
    """One ``plan_search`` per context under one model, in order, returning
    their plans.  When ``rng_states`` is given, the i-th search first sets
    ``rng`` to ``rng_states[i]``; a greedy search (epsilon 0) draws nothing,
    so it needs neither.

    The searches share one table of scored steps, keyed by each context's
    ``shape`` and the decisions taken so far (see ``plan_search``): a query
    of a shape already searched reads the steps that query scored instead of
    scoring the same rows again.  A shape's steps are dropped right after
    the last query of that shape has been searched, so no step outlives the
    call, whose searches are all under one model, and none lives on a
    context."""
    last = {ctx.shape: index for index, ctx in enumerate(contexts)}
    states = {}
    plans = []
    for index, ctx in enumerate(contexts):
        if rng_states is not None:
            rng.bit_generator.state = rng_states[index]
        plans.append(plan_search(
            ctx,
            params,
            ctx.catalog,
            ctx.cfg,
            beam_width=cfg.search.beam_width,
            epsilon=epsilon,
            rng_seed=rng,
            left_deep_only=cfg.search.left_deep_only,
            states=states,
        ))
        if last[ctx.shape] == index:
            del states[ctx.shape]
    return plans


def evaluate_queries(
    contexts: list[QueryContext],
    params: ModelParams,
    cfg: RunConfig,
) -> dict[str, float]:
    """Greedy noiseless latency of every query's plan, searched by
    ``search_plans``."""
    plans = search_plans(contexts, params, cfg)
    return {ctx.query.id: ctx.latency(plan) for ctx, plan in zip(contexts, plans)}


def execute_plans(
    contexts: list[QueryContext],
    plans: list[PlanNode],
    exec_states: list[dict],
    rng: np.random.Generator,
    iteration: int,
) -> list[PlanBlock]:
    """Execute each context's plan and extract its block at ``iteration``,
    in order: the i-th execution draws its noise from ``rng`` set to
    ``exec_states[i]``.  Each distinct plan object of a context ``shape`` is
    walked and featurized once: its first execution checks that it covers
    the query and costs it (``QueryContext.cost``), executes that cost and
    extracts the block.  A later execution of the same object for a context
    of the same shape executes the kept cost and shares the first block's
    read-only ``features`` and ``parent``, under its own query id and
    latency.  Those rows and the cost read only what the shape covers, so
    each block is the one extracting it alone would give.  The table of
    executed plans lives for the call, and each entry holds its plan, so no
    ``id`` is reused while the entry lives."""
    executed = {}  # id(plan) -> (plan, shape, cost, first block)
    blocks = []
    for ctx, plan, state in zip(contexts, plans, exec_states, strict=True):
        rng.bit_generator.state = state
        seen = executed.get(id(plan))
        if seen is None or seen[1] != ctx.shape:
            cost = ctx.cost(plan)
            block = extract_experiences(plan, ctx, execute(cost, ctx.cfg, rng), iteration)
            executed[id(plan)] = plan, ctx.shape, cost, block
        else:
            _, _, cost, first = seen
            latency = execute(cost, ctx.cfg, rng)
            block = PlanBlock(ctx.query.id, iteration, latency, first.features, first.parent)
        blocks.append(block)
    return blocks


def _train_on(
    params: ModelParams,
    batch: tuple[np.ndarray, np.ndarray],
    minibatch: int,
    lr: float,
    passes: int = 1,
) -> ModelParams:
    """SGD passes over the rows of the (features, labels) batch in order,
    in minibatch chunks: plain row slices of the batch.  Each chunk takes
    one ``batch_grad`` and one ``sgd_step``, in place on working values
    allocated once per call: a copy of ``params``, a gradient and a scratch
    vector.  Returns the copy; ``params`` and ``batch`` are not written, and
    non-finite rows are left for the caller's ``check_finite`` to report."""
    trained = ModelParams(params.layer_sizes, params.vector.copy())
    grad = ModelParams(params.layer_sizes, np.empty_like(trained.vector))
    scratch = np.empty_like(trained.vector)
    features, labels = batch
    for _ in range(passes):
        for lo in range(0, len(labels), minibatch):
            rows = slice(lo, lo + minibatch)
            batch_grad(trained, features[rows], labels[rows], grad)
            sgd_step(trained.vector, grad.vector, lr, scratch)
    return trained


def run_training(cfg: RunConfig, base_seed: int | None = None) -> RunResult:
    """One training run; fully reproducible for a given config and seed.
    Train query ``q``'s search and execution at iteration ``it`` draw from
    one reused generator, set to ``default_rng(derive_seed(seed, "search",
    it, q))``'s state and then to that of ``"exec"``.  An iteration
    searches every train query with ``search_plans``, then executes the
    plans in query order with ``execute_plans``, which walks and
    featurizes each distinct plan object once and keeps its table of
    executed plans for that call only; its blocks are the ones executing
    each query alone gives."""
    seed = cfg.base_seed if base_seed is None else base_seed
    setup = prepare_run(cfg, seed)
    started = time.perf_counter()
    baselines = setup.baselines()
    params = setup.initial_params()
    if cfg.transfer.enabled:
        params, _ = meta_initialize(cfg, setup.train, params, seed)

    expert_noiseless = {
        ctx.query.id: ctx.latency(ctx.expert()) for ctx in setup.train + setup.test
    }
    expert_train = {c.query.id: baselines[c.query.id].mean_latency_ms for c in setup.train}
    expert_test = {c.query.id: baselines[c.query.id].mean_latency_ms for c in setup.test}

    plan_rows = max(len(ctx.relations) for ctx in setup.train) - 1  # one plan's joins
    rng = np.random.default_rng(0)  # each search and execution sets its state first
    buffer = ReplayBuffer(cfg.retention.capacity, plan_rows)
    records: list[IterationRecord] = []
    last_norm_td = math.nan
    last_recency = math.nan

    def record(iteration: int):
        # One evaluation of both splits, whose searches share the steps of
        # the test queries' shapes that train queries also have.
        latencies = evaluate_queries(setup.train + setup.test, params, cfg)
        train_lat = {c.query.id: latencies[c.query.id] for c in setup.train}
        test_lat = {c.query.id: latencies[c.query.id] for c in setup.test}
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
    n_train = len(setup.train)
    for iteration in range(1, cfg.iterations + 1):
        states = generator_states(derive_seeds(
            [(seed, tag, iteration, qidx) for tag in ("search", "exec") for qidx in range(n_train)]
        ))
        plans = search_plans(setup.train, params, cfg, epsilon, rng, states[:n_train])
        blocks = execute_plans(setup.train, plans, states[n_train:], rng, iteration)
        buffer.extend(*blocks)
        if cfg.retention.enabled:
            batch, stats = sample_replay(
                buffer, params, cfg.retention, derive_seed(seed, "replay", iteration)
            )
            last_norm_td = stats.mean_sampled_norm_td
            last_recency = stats.mean_sampled_recency
        else:
            # Ablation arm: same sample budget, but drawn uniformly from the
            # current iteration's experiences only (no history, no priorities).
            replay_rng = np.random.default_rng(derive_seed(seed, "replay", iteration))
            batch = fresh_batch(blocks, cfg.retention.k_replay, replay_rng)
        params = _train_on(
            params, batch, cfg.model.minibatch, cfg.model.learning_rate, cfg.model.train_passes
        )
        params = check_finite(params, f"iteration {iteration}: sgd")
        epsilon *= cfg.search.epsilon_decay
        if iteration % cfg.eval_interval == 0 or iteration == cfg.iterations:
            record(iteration)

    buffer.activations = []  # the TD pass's scratch rows, which no later pass reads
    return RunResult(
        config=cfg,
        base_seed=seed,
        records=records,
        params=params,
        baselines=baselines,
        expert_noiseless=expert_noiseless,
        train_ids=tuple(c.query.id for c in setup.train),
        test_ids=tuple(c.query.id for c in setup.test),
        buffer=buffer,
    )


# ---------------------------------------------------------------------------
# Repetitions and tables


def run_repetitions(cfg: RunConfig) -> list[RunResult]:
    """Repeated runs with seeds base_seed .. base_seed + repetitions - 1."""
    return [run_training(cfg, base_seed=cfg.base_seed + r) for r in range(cfg.repetitions)]


def write_csv(path, header, rows) -> None:
    """The one CSV format of every table: cells quoted as the csv module
    quotes them, ``\n`` line ends, floats by ``repr`` and None as an empty
    cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_RECORD_COLUMNS = (
    "iteration",
    "wrl_train",
    "wrl_test",
    "buffer_size",
    "mean_sampled_norm_td",
    "mean_sampled_recency",
)


def _run_csv_columns(train_ids, test_ids) -> list[str]:
    return [
        *_RECORD_COLUMNS,
        *(f"train_latency_ms:{qid}" for qid in train_ids),
        *(f"test_latency_ms:{qid}" for qid in test_ids),
        WALL_CLOCK_COLUMN,
    ]


def write_run_csv(result: RunResult, path) -> None:
    """One row per evaluation record.  The wall-clock column is last and is
    excluded from reproducibility comparisons."""
    rows = [
        [
            *(getattr(rec, name) for name in _RECORD_COLUMNS),
            *(rec.train_latencies[qid] for qid in result.train_ids),
            *(rec.test_latencies[qid] for qid in result.test_ids),
            rec.wall_clock_ms,
        ]
        for rec in result.records
    ]
    write_csv(path, _run_csv_columns(result.train_ids, result.test_ids), rows)


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise ValueError(text)
    return value


# How a run.csv cell is read, by column, and what a refusal says it must
# be.  Every other column is a latency or a WRL: above 0, and +inf where a
# plan's cost overflowed.  The replay means are NaN where nothing was sampled.
_COLUMN_KINDS = {"iteration": int, "buffer_size": int, "mean_sampled_norm_td": float,
                 "mean_sampled_recency": float, WALL_CLOCK_COLUMN: float}
_KIND_NAMES = {int: "an integer", float: "a number", _positive: "a number above 0"}


def read_run_csv(path, train_ids, test_ids) -> list[IterationRecord]:
    """The records of a run.csv that ``write_run_csv`` wrote for a run with
    these query ids.  This is the one check of a history: what the
    verdicts, the convergence iteration and the WRLs are computed from
    passes it.  Each refusal is one line naming the file, and the line and
    column where there is one.  Refused are text that is not UTF-8; a
    missing, repeated or unexpected column; a short or long row; fewer than
    2 records; a cell that is not a number, or not an integer in
    ``iteration`` and ``buffer_size``; an ``iteration`` that does not
    exceed the previous record's; and a latency or WRL that is not above 0
    (NaN, zero or negative).  A latency or WRL of +inf is accepted, and the
    replay means and the wall clock take any float."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    header = rows[0] if rows else []
    expected = _run_csv_columns(train_ids, test_ids)
    problems = [
        f"{kind} column(s) {columns}"
        for kind, columns in (
            ("missing", [c for c in expected if c not in header]),
            ("repeated", [c for i, c in enumerate(header) if c in header[:i]]),
            ("unexpected", [c for c in header if c not in expected]),
        )
        if columns
    ]
    if problems:
        raise ValueError(f"{path}: {', '.join(problems)}")
    if len(rows) < 3:
        raise ValueError(f"{path}: {len(rows) - 1} record(s); a run's history has at least 2")
    records = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{line}: {len(row)} values for {len(header)} columns")
        cells = {}
        for column, text in zip(header, row):
            kind = _COLUMN_KINDS.get(column, _positive)
            try:
                cells[column] = kind(text)
            except ValueError:
                raise ValueError(
                    f"{path}:{line}: {column!r} must be {_KIND_NAMES[kind]}, got {text!r}"
                ) from None
        previous = records[-1].iteration if records else -math.inf
        if cells["iteration"] <= previous:
            raise ValueError(f"{path}:{line}: 'iteration' must exceed line {line - 1}'s {previous}")
        records.append(
            IterationRecord(
                train_latencies={qid: cells[f"train_latency_ms:{qid}"] for qid in train_ids},
                test_latencies={qid: cells[f"test_latency_ms:{qid}"] for qid in test_ids},
                **{name: cells[name] for name in (*_RECORD_COLUMNS, WALL_CLOCK_COLUMN)},
            )
        )
    return records


NC = "NC"  # the convergence iteration of a run that never converged


def _summary_row(rep: int, run: RunResult) -> dict:
    counts = {}
    for split in ("test", "train"):
        verdicts = [v.verdict for v in run.verdicts(split).values()]
        for verdict in (Verdict.PLATEAU, Verdict.REBOUND):
            counts[f"{verdict.value}_{split}"] = verdicts.count(verdict)
    convergence = run.convergence()
    return {
        "rep": rep,
        "seed": run.base_seed,
        "final_wrl_train": run.final_wrl("train"),
        "final_wrl_test": run.final_wrl("test"),
        "convergence_iteration": NC if convergence is None else convergence,
        **counts,
        "regressions_total": sum(counts.values()),
    }


def summary_table(runs: list[RunResult]) -> list[dict]:
    """summary.csv's rows: one per repetition, then a median row taken
    column by column over them.  A run that never converged counts as later
    than any that did, and the median is ``NC`` when it is such a run."""
    rows = [_summary_row(rep, run) for rep, run in enumerate(runs)]
    median = {"rep": "median", "seed": None}
    for column in list(rows[0])[2:]:
        values = [row[column] for row in rows]
        if column == "convergence_iteration":
            med = statistics.median(math.inf if v == NC else float(v) for v in values)
            median[column] = NC if math.isinf(med) else med
        else:
            median[column] = statistics.median(values)
    return rows + [median]


def write_summary_csv(table: list[dict], path) -> None:
    write_csv(path, list(table[0]), [list(row.values()) for row in table])


def write_verdicts_csv(runs: list[RunResult], path) -> None:
    rows = [
        [rep, split, qid, v.verdict.value, v.first_superior_iteration, v.regression_iteration]
        for rep, run in enumerate(runs)
        for split in ("train", "test")
        for qid, v in sorted(run.verdicts(split).items())
    ]
    header = ["rep", "split", "query_id", "verdict", "first_superior_iteration",
              "regression_iteration"]
    write_csv(path, header, rows)
