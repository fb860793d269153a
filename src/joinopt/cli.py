"""Command-line entry points.

Commands: gen-workload, partition-report, meta-train, train, eval,
replay-report.  Every command derives all randomness from a single seed, so
identical flags produce byte-identical artifacts (wall-clock columns aside).
Errors exit nonzero with one machine-parseable line on stderr.  Numpy's
error state is set once, in ``main``, for every command: its overflow and
invalid-value warnings are silenced, since a diverged model fails in
``model.check_finite`` naming its phase, and an overflowing plan shows as
an infinite latency.  The five
commands that read a run config load it once, in ``main``, and apply their
override flags from the one table ``_OVERRIDES``.  Each command builds the
rows of its table once, prints from those rows, and writes them with
``trainer.write_csv``, the one CSV writer of every table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from . import workload_gen
from .features import feature_dim
from .metrics import wrl
from .model import ModelError, load_params, save_params
from .retention import RetentionConfig, dump_buffer, sample_replay
from .trainer import (
    NC,
    ConfigError,
    RunConfig,
    RunHistory,
    config_to_doc,
    derive_seed,
    evaluate_queries,
    load_run_config,
    meta_initialize,
    prepare_run,
    read_run_csv,
    run_repetitions,
    run_training,
    summary_table,
    write_csv,
    write_run_csv,
    write_summary_csv,
    write_verdicts_csv,
)
from .transfer import PartitioningPolicy, score_all_policies

__all__ = ["main"]


def _flag_choices(values) -> list[str]:
    return sorted(v.replace("_", "-") for v in values)


# Every run-config override: flag -> (config section, None for the top level;
# key; argparse spec).  A switch sets its key to False, and a choice spelled
# with dashes names the config value spelled with underscores.
_OVERRIDES = {
    "--seed": (None, "base_seed", dict(type=int, help="override base seed")),
    "--reps": (None, "repetitions", dict(type=int, help="override repetitions")),
    "--iterations": (
        None, "iterations", dict(type=int, help="override training iterations")
    ),
    "--k-tasks": ("transfer", "k_tasks", dict(type=int, help="override task count")),
    "--no-transfer": (
        "transfer", "enabled",
        dict(action="store_true", help="disable meta initialization"),
    ),
    "--no-retention": (
        "retention", "enabled",
        dict(action="store_true", help="train only on each iteration's fresh experiences"),
    ),
    "--weighting": (
        "retention", "weighting",
        dict(choices=_flag_choices(RetentionConfig.WEIGHTINGS), help="replay weighting policy"),
    ),
    "--policy": (
        "transfer", "forced_policy",
        dict(
            choices=_flag_choices(p.value for p in PartitioningPolicy),
            help="force a partitioning policy instead of DBI selection",
        ),
    ),
}


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    for flag, (section, key, spec) in _OVERRIDES.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None or value is False:
            continue
        if spec.get("action") == "store_true":
            value = False
        elif "choices" in spec:
            value = value.replace("-", "_")
        try:
            if section is None:
                cfg = dataclasses.replace(cfg, **{key: value})
            else:
                changed = dataclasses.replace(getattr(cfg, section), **{key: value})
                cfg = dataclasses.replace(cfg, **{section: changed})
        except ValueError as exc:
            raise ConfigError(f"{flag}: {exc}") from None
    return cfg


def _cmd_gen_workload(args, _cfg) -> int:
    catalog_doc, train_doc, test_doc = workload_gen.generate(
        n_tables=args.tables,
        shape=args.shape,
        n_train=args.train_queries,
        n_test=args.test_queries,
        seed=args.seed,
        min_relations=args.min_relations,
        max_relations=args.max_relations,
    )
    paths = workload_gen.write_files(args.out, catalog_doc, train_doc, test_doc)
    for path in paths:
        print(path)
    return 0


def _write_table(out, name: str, header: list[str], rows) -> None:
    """Write one report table into the ``--out`` directory and print its path."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / name, header, rows)
    print(out / name)


def _cmd_partition_report(args, cfg: RunConfig) -> int:
    setup = prepare_run(cfg, cfg.base_seed)
    scored = score_all_policies(setup.train, cfg.transfer.k_tasks)
    best = min(scored, key=lambda ts: ts.dbi_score)
    for ts in scored:
        marker = "*" if ts is best else " "
        print(f"{marker} {ts.policy.value:<16} DBI={ts.dbi_score:.6f} tasks={list(map(list, ts.tasks))}")
    if args.out:
        rows = [
            [ts.policy.value, task_idx, " ".join(task), ts.dbi_score,
             "yes" if ts is best else "no"]
            for ts in scored
            for task_idx, task in enumerate(ts.tasks)
        ]
        header = ["policy", "task", "query_ids", "dbi", "selected"]
        _write_table(args.out, "partition_report.csv", header, rows)
    return 0


def _cmd_meta_train(args, cfg: RunConfig) -> int:
    setup = prepare_run(cfg, cfg.base_seed)
    params, taskset = meta_initialize(cfg, setup.train, setup.initial_params(), cfg.base_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "meta_params.npz"
    save_params(params, ckpt)
    print(f"policy={taskset.policy.value} dbi={taskset.dbi_score}")
    print(ckpt)
    return 0


def _cmd_train(args, cfg: RunConfig) -> int:
    runs = run_repetitions(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config_to_doc(cfg), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for rep, run in enumerate(runs):
        rep_dir = out / f"rep{rep}"
        rep_dir.mkdir(exist_ok=True)
        write_run_csv(run, rep_dir / "run.csv")
        save_params(run.params, rep_dir / "model.npz")
    summary = summary_table(runs)
    write_summary_csv(summary, out / "summary.csv")
    write_verdicts_csv(runs, out / "verdicts.csv")
    *reps, median = summary
    print(
        f"median final WRL test={median['final_wrl_test']:.4f} "
        f"train={median['final_wrl_train']:.4f}"
    )
    print(f"median convergence iteration={median['convergence_iteration']}")
    regressions = statistics.median(row["plateau_test"] + row["rebound_test"] for row in reps)
    print(f"median test regressions={regressions}")
    print(out / "summary.csv")
    return 0


def _cmd_eval(args, cfg: RunConfig) -> int:
    params = load_params(args.model)
    setup = prepare_run(cfg, cfg.base_seed)
    width = feature_dim(setup.catalog)
    if params.layer_sizes[0] != width:
        raise ModelError(
            f"{args.model}: the network takes {params.layer_sizes[0]} input features, "
            f"but catalog {cfg.catalog_path} gives {width}"
        )
    train_ids = tuple(ctx.query.id for ctx in setup.train)
    test_ids = tuple(ctx.query.id for ctx in setup.test)
    records = read_run_csv(args.history, train_ids, test_ids) if args.history else None
    # Seeded as in train, so the verdicts match the run's verdicts.csv.
    baselines = setup.baselines()
    history, verdicts = None, {}
    if records is not None:
        history = RunHistory(cfg, records, baselines, train_ids, test_ids)
        foreign = history.first_foreign_record()
        if foreign is not None:
            raise ValueError(
                f"{args.history}: iteration {foreign.iteration}: recorded WRL does not "
                f"match the expert baselines of seed {cfg.base_seed}; pass the run's --seed"
            )
        verdicts = {split: history.verdicts(split) for split in ("train", "test")}

    # One evaluation of both splits, as a run's evaluations are made.
    evaluated = evaluate_queries(setup.train + setup.test, params, cfg)
    rows = []
    for split, ids in (("train", train_ids), ("test", test_ids)):
        latencies = {qid: evaluated[qid] for qid in ids}
        expert = {qid: baselines[qid].mean_latency_ms for qid in ids}
        print(f"{split} WRL={wrl(latencies, expert):.4f}")
        rows += [
            [split, qid, latencies[qid], expert[qid], baselines[qid].tolerance_ms,
             verdicts[split][qid].verdict.value if verdicts else None]
            for qid in ids
        ]
    for split, qid, learned, expert, _, verdict in rows:
        verdict = f" verdict={verdict}" if verdict else ""
        print(f"  {split:<5} {qid:<6} learned={learned:.3f}ms expert={expert:.3f}ms{verdict}")
    convergence = None
    if history is not None:
        convergence = history.convergence()
        convergence = NC if convergence is None else convergence
        print(f"convergence iteration={convergence}")
    if args.out:
        header = ["split", "query_id", "learned_latency_ms", "expert_mean_latency_ms",
                  "expert_tolerance_ms", "verdict", "convergence_iteration"]
        _write_table(args.out, "eval.csv", header, [row + [convergence] for row in rows])
    return 0


def _cmd_replay_report(args, cfg: RunConfig) -> int:
    result = run_training(cfg)
    buffer = result.buffer
    _, stats = sample_replay(
        buffer, result.params, cfg.retention, derive_seed(result.base_seed, "report-replay")
    )
    counts = np.bincount(stats.sampled_indices, minlength=len(buffer))
    print(
        f"buffer size={len(buffer)} sampled={len(stats.sampled_indices)} "
        f"mean_norm_td={stats.mean_sampled_norm_td:.4f} "
        f"mean_recency={stats.mean_sampled_recency:.4f}"
    )
    rows = [
        [i, buffer.query_id[row], int(buffer.stored_at[row]), float(stats.norm_td[i]),
         float(stats.recency[i]), float(stats.probabilities[i]), int(counts[i])]
        for i, row in enumerate(buffer.order())
    ]
    header = ["index", "query_id", "stored_at", "norm_td", "recency", "probability",
              "sampled_count"]
    _write_table(args.out, "replay_report.csv", header, rows)
    dump_buffer(buffer, Path(args.out) / "buffer.json")
    return 0


def _run_command(sub, name, func, summary, flags):
    """A subcommand that reads a run config, overridable by these flags."""
    cmd = sub.add_parser(name, help=summary)
    cmd.add_argument("--config", required=True, help="run-configuration file")
    for flag in flags:
        cmd.add_argument(flag, **_OVERRIDES[flag][2])
    cmd.set_defaults(func=func)
    return cmd


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="joinopt",
        description="Learned join-order optimizer sandbox with replay training, "
        "meta-learned initialization, and a deterministic cost simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-workload", help="generate a synthetic catalog and workload")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--tables", type=int, default=6, help="number of tables (>= 2)")
    gen.add_argument(
        "--shape", choices=workload_gen.SHAPES, default="star", help="schema shape"
    )
    gen.add_argument("--train-queries", type=int, default=10, help="train query count")
    gen.add_argument("--test-queries", type=int, default=3, help="test query count")
    gen.add_argument("--seed", type=int, default=1, help="generator seed")
    gen.add_argument("--min-relations", type=int, default=2, help="smallest query size")
    gen.add_argument(
        "--max-relations", type=int, default=None, help="largest query size"
    )
    gen.set_defaults(func=_cmd_gen_workload)

    part = _run_command(
        sub, "partition-report", _cmd_partition_report,
        "score all partitioning policies by DBI", ("--k-tasks",),
    )
    part.add_argument("--out", default=None, help="directory for partition_report.csv")

    meta = _run_command(
        sub, "meta-train", _cmd_meta_train,
        "produce a meta-learned checkpoint", ("--seed", "--k-tasks", "--policy"),
    )
    meta.add_argument("--out", required=True, help="output directory")

    train = _run_command(
        sub, "train", _cmd_train,
        "run training repetitions and export CSVs", tuple(_OVERRIDES),
    )
    train.add_argument("--out", required=True, help="output directory")

    ev = _run_command(
        sub, "eval", _cmd_eval, "evaluate a checkpoint against the expert", ("--seed",)
    )
    ev.add_argument("--model", required=True, help="model checkpoint (.npz)")
    ev.add_argument(
        "--history", default=None,
        help="a run.csv file; adds per-query verdicts and the convergence iteration",
    )
    ev.add_argument("--out", default=None, help="directory for eval.csv")

    rep = _run_command(
        sub, "replay-report", _cmd_replay_report,
        "train, then report the replay buffer the run trained on",
        ("--seed", "--iterations"),
    )
    rep.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = None
        if "config" in args:
            cfg = _apply_overrides(load_run_config(args.config), args)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args, cfg)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
