"""One workload process of the benchmark: train, then serve plans.

Run by ``run.py`` as a fresh, single-threaded interpreter.  It drives the
program only through its public API (``load_run_config``, ``run_training``,
``plan_search``, ``noiseless_latency``, ``write_run_csv``) and writes one JSON
document with its timings and every output the checks need.  The checks
themselves run in the parent, so their memory is not counted here.

    python3 worker.py SPEC_JSON

SPEC_JSON names the config, the training seed, whether this is a set-up
replica (it trains one iteration and serves nothing), the serving seconds,
the output directory, whether to trace, and the parent's
``time.perf_counter()`` just before the spawn (CLOCK_MONOTONIC, shared by
processes on Linux), so that set-up time includes interpreter start and
imports.  Times are scaled to the reference speed of ``speed.py``; the raw
wall times are kept next to them.
"""

import os

# Pin the BLAS and OpenMP pools before numpy is imported.  PYTHONHASHSEED is
# left as it is: pinning it did not narrow the spread (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import speed


def plan_doc(node):
    """A plan tree as nested lists: a table name, or [op, left, right]."""
    if hasattr(node, "table"):
        return node.table
    return [node.op.value, plan_doc(node.left), plan_doc(node.right)]


def serve(queries, params, catalog, cfg, plan_search, seconds):
    """Greedy plan_search over every query, in whole rounds, for ``seconds``.

    Returns the rounds as (start, end, calls), the number of calls attempted
    and failed, and the last plan per query.
    """
    rounds = []
    plans = {}
    failed = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        start = time.perf_counter()
        for query in queries:
            try:
                plans[query.id] = plan_search(
                    query,
                    params,
                    catalog,
                    cfg.cost_model,
                    beam_width=cfg.search.beam_width,
                    epsilon=0.0,
                    rng_seed=0,
                    left_deep_only=cfg.search.left_deep_only,
                )
            except Exception:  # counted; the plan check reports the query
                failed += 1
        rounds.append((start, time.perf_counter(), len(queries)))
    return rounds, len(rounds) * len(queries), failed, plans


def blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def main(spec, sampler):
    sys.path.insert(0, spec["src"])
    import numpy as np
    from joinopt.catalog import load_catalog, load_workload
    from joinopt.simulator import noiseless_latency
    from joinopt.trainer import (
        config_to_doc,
        load_run_config,
        plan_search,
        run_training,
        write_run_csv,
    )

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # after the imports above, which stay untraced

    cfg = load_run_config(spec["config"])
    if spec["replica"]:  # one iteration, evaluated at its end
        cfg = dataclasses.replace(cfg, iterations=1)
    result = run_training(cfg, base_seed=spec["seed"])
    returned = time.perf_counter()
    first, last = result.records[0], result.records[-1]
    # run_training returns right after its last evaluation, so iteration 1
    # began this long before the return.
    iteration_1 = returned - (last.wall_clock_ms - first.wall_clock_ms) / 1000.0
    if tracer is not None:
        tracer.uninstall()
    doc = {
        "setup_s": sampler.scaled(spec["spawned_at"], iteration_1),
        "wall_setup_s": iteration_1 - spec["spawned_at"],
        "speed_samples": sampler.samples,
    }
    out = Path(spec["out_dir"])
    if spec["replica"]:
        write_run_csv(result, out / "run.csv")
        (out / "result.json").write_text(json.dumps(doc), encoding="utf-8")
        return
    doc["train_s"] = sampler.scaled(iteration_1, returned)
    doc["wall_train_s"] = returned - iteration_1

    catalog = load_catalog(cfg.catalog_path)
    queries = load_workload(cfg.train_workload_path, catalog) + load_workload(
        cfg.test_workload_path, catalog
    )
    rounds, attempted, failed, plans = serve(
        queries, result.params, catalog, cfg, plan_search, spec["serve_seconds"]
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plan_ms = [1000.0 * s for s in sampler.scaled_rounds(rounds)]
    write_run_csv(result, out / "run.csv")

    by_id = {q.id: q for q in queries}
    doc.update({
        "config": config_to_doc(cfg),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "plan_ms_rounds": plan_ms,
        "wall_plan_ms_rounds": [1000.0 * (e - s) / n for s, e, n in rounds],
        "served_attempted": attempted,
        "served_failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "train_ids": list(result.train_ids),
        "test_ids": list(result.test_ids),
        "queries": {
            q.id: {"relations": list(q.relations), "join_edges": sorted(q.join_edges)}
            for q in queries
        },
        "expert_noiseless": result.expert_noiseless,
        "records": [
            {
                "iteration": r.iteration,
                "wrl_test": r.wrl_test,
                "buffer_size": r.buffer_size,
                "latencies": {**r.train_latencies, **r.test_latencies},
            }
            for r in result.records
        ],
        "served": {
            qid: {
                "plan": plan_doc(plan),
                "noiseless_latency": noiseless_latency(
                    plan, by_id[qid], catalog, cfg.cost_model
                ),
            }
            for qid, plan in plans.items()
        },
    })
    if tracer is not None:
        doc["trace"] = tracer.report(out / "spans.csv")
    (out / "result.json").write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        main(json.loads(sys.argv[1]), sampler)
    finally:
        sampler.stop()
