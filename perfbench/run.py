"""Benchmark for joinopt: one training workload per call.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload in fresh single-threaded processes, one after another:
the measured process (set-up, training, then greedy plan serving for
``--seconds``), then REPLICAS set-up replicas that train one iteration.
``--seed`` is the training seed (default 1); the workload's catalog and
queries are fixed files.  The outputs are checked against independent
computations (``checks.py``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a run whose calls
into the program's modules are traced (``tracing.py``).  Times are scaled to
a reference machine speed (``speed.py``).

Files are written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

# workload: (run config, training seed or None to train with --seed)
WORKLOADS = {
    "star6-train": (ROOT / "data" / "star6" / "experiment.json", None),
    # The value network collapses on this workload from iteration 1, into a
    # state that depends on the training seed (final test WRL 52-53 on seeds
    # 1-4, 1355 on seed 5), so one seed keeps its metrics comparable.
    "snowflake12-train": (HERE / "workloads" / "snowflake12" / "experiment.json", 1),
    "chain8-replay": (HERE / "workloads" / "chain8" / "experiment.json", None),
}
REPLICAS = 2
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "plan_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "final_wrl_test": "ratio",
    "worst_ratio_test": "ratio",
}


def run_worker(spec, out_dir, deadline):
    """Run one workload process to completion and return its result."""
    out_dir.mkdir(parents=True)
    spec = dict(spec, out_dir=str(out_dir))
    remaining = deadline - time.perf_counter()
    spec["spawned_at"] = time.perf_counter()
    try:
        # subprocess.run kills and reaps the process when the timeout expires.
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, remaining),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload process did not finish within {DEADLINE_S:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return json.loads((out_dir / "result.json").read_text(encoding="utf-8"))


def run_checks(main, csv_texts, model):
    queries = main["queries"]
    dp = {
        qid: checks.dp_latency(model, q["relations"], [tuple(e) for e in q["join_edges"]])
        for qid, q in queries.items()
    }
    per_iteration = sum(len(queries[qid]["relations"]) - 1 for qid in main["train_ids"])
    return {
        "expert_optimal": checks.check_expert_optimal(dp, main["expert_noiseless"]),
        "plan_shape": checks.check_plan_shape(queries, main["served"]),
        "plan_cost": checks.check_plan_cost(model, queries, main["served"]),
        "latency_bound": checks.check_latency_bound(dp, main["records"]),
        "buffer_size": checks.check_buffer_sizes(
            main["records"], main["config"]["retention"]["capacity"], per_iteration
        ),
        "repeatable": checks.check_repeatable(csv_texts),
    }, dp


def end_to_end(main, setups, dp):
    last = main["records"][-1]
    return {
        "setup_s": statistics.median(setups),
        "train_s": main["train_s"],
        "plan_ms_p50": statistics.median(main["plan_ms_rounds"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "final_wrl_test": last["wrl_test"],
        "worst_ratio_test": max(last["latencies"][qid] / dp[qid] for qid in main["test_ids"]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="training seed")
    parser.add_argument(
        "--seconds", type=float, default=3.0, help="length of the plan-serving phase"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    config, train_seed = WORKLOADS[args.workload]
    src = ROOT / "src"
    for needed in (src / "joinopt" / "trainer.py", config):
        if not needed.is_file():
            raise SystemExit(f"missing {needed.relative_to(ROOT)}: run from a joinopt checkout")

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    spec = {
        "src": str(src),
        "config": str(config),
        "seed": args.seed if train_seed is None else train_seed,
        "replica": False,
        "serve_seconds": args.seconds,
        "trace": bool(args.trace),
    }
    main_result = run_worker(spec, out / "main", deadline)
    replicas = [
        run_worker(dict(spec, replica=True, trace=False), out / f"replica{n}", deadline)
        for n in range(1, REPLICAS + 1)
    ]

    names = ["main"] + [f"replica{n}" for n in range(1, REPLICAS + 1)]
    csv_texts = [(out / name / "run.csv").read_text(encoding="utf-8") for name in names]
    setups = [r["setup_s"] for r in [main_result] + replicas]

    model = checks.load_model(main_result["config"]["catalog"], main_result["config"]["cost_model"])
    failures, dp = run_checks(main_result, csv_texts, model)
    correct = not any(failures.values())
    for name, errors in failures.items():
        for error in errors[:5]:
            print(f"check {name} FAILED: {error}", file=sys.stderr)

    if args.trace:
        trace = main_result["trace"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in trace["metrics"].items()}
        metrics["traced.train_s"] = {"value": main_result["train_s"], "unit": "s"}
    else:
        values = end_to_end(main_result, setups, dp)
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "train_seed": spec["seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": main_result["numpy"],
        "blas": main_result["blas"],
        "setups_s": setups,
        "wall_setups_s": [r["wall_setup_s"] for r in [main_result] + replicas],
        "wall_train_s": main_result["wall_train_s"],
        "wall_plan_ms_p50": statistics.median(main_result["wall_plan_ms_rounds"]),
        "plan_rounds": len(main_result["plan_ms_rounds"]),
        # Not end-to-end metrics: both depend on whether the training seed
        # starts from a failed meta-initialization (see README.md).
        "first_wrl_test": main_result["records"][0]["wrl_test"],
        "mean_wrl_test": statistics.fmean(r["wrl_test"] for r in main_result["records"]),
        "checks": {name: len(errors) for name, errors in failures.items()},
        "metrics": metrics,
    }
    if args.trace:
        summary["spans"] = main_result["trace"]["spans"]
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(
        f"# {args.workload} seed={args.seed} host={summary['host']} nproc={summary['nproc']} "
        f"numpy={summary['numpy']} blas={summary['blas']}"
    )
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": main_result["served_attempted"] + 1 + REPLICAS,
                "failed": main_result["served_failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
