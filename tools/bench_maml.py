"""Record first-order MAML's and one online SGD phase's time on the
benchmark workloads as ``BENCH_<label>.json``.

    python3 tools/bench_maml.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout (a ``git archive`` of a commit is enough); the
file names each side by its directory's name, so name the directories after
their commits.  A subprocess per checkout, with that checkout's ``src``
first on the path and one BLAS thread, loads each of the ``CONFIGS`` with
``trainer.prepare_run(cfg, SEED)`` and calls ``trainer.meta_initialize``
from the run's initial parameters, ``setup.initial_params()``, with
``trainer.maml_outer`` replaced by a stub that keeps its arguments and
returns the parameters it was given, so the meta tasks and MAML settings
are exactly the ones a run with seed ``SEED`` uses.  It then times
``PASSES`` calls of ``transfer.maml_outer`` on them from those parameters,
and ``PASSES`` times ``SGD_PHASES`` calls of ``trainer._train_on`` from
MAML's result on a fixed batch: the first ``k_replay`` rows of the meta
tasks, each a (features, labels) pair, in task order, with the config's
minibatch, learning rate and passes.  Times are CPU time
(``time.process_time``).  It prints the times and a SHA-256 digest of each
result's bytes, layer by layer.  The two checkouts run ``ROUNDS`` times in
alternating order: even rounds run the ``before`` side first
(``bench_pairs.worker_rounds``).  The file, written to the current
directory, records per workload and timed call each side's median and
quartiles over every pass of every round, the ratio of the medians, each
round's ratio of the two sides' medians, and whether both checkouts
returned equal parameters in every pass of every round.  The script exits
non-zero, after writing the file, if any parameters differ.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_pairs import _quartiles, worker_rounds

CONFIGS = {
    "star6": "data/star6/experiment.json",
    "chain8": "perfbench/workloads/chain8/experiment.json",
    "snowflake12": "perfbench/workloads/snowflake12/experiment.json",
}
SEED = 1
PASSES = 3
SGD_PHASES = 20
ROUNDS = 10
TIMED = ("maml_outer", "train_on")

# Run in each checkout: one JSON object mapping each workload to the ms of
# each timed call per pass and the digests of every pass's results.
WORKER = """
import hashlib, json, sys, time
import numpy as np
from joinopt import trainer
from joinopt.transfer import maml_outer

configs, seed, passes, phases = json.loads(sys.argv[1])


def digest(params):
    h = hashlib.sha256()
    for w, b in zip(params.weights, params.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()


out = {}
for name, path in configs.items():
    cfg = trainer.load_run_config(path)
    setup = trainer.prepare_run(cfg, seed)
    params = setup.initial_params()
    calls = []
    trainer.maml_outer = lambda params, *args, **kwargs: calls.append((args, kwargs)) or params
    trainer.meta_initialize(cfg, setup.train, params, seed)
    trainer.maml_outer = maml_outer
    (args, kwargs), = calls
    rows = slice(0, cfg.retention.k_replay)
    features = np.concatenate([f for f, _ in args[0]])[rows]
    labels = np.concatenate([y for _, y in args[0]])[rows]
    batch = (features, labels)
    entry = {"rows": len(labels), "maml_outer": [], "train_on": [], "digests": []}
    for _ in range(passes):
        start = time.process_time()
        meta = maml_outer(params, *args, **kwargs)
        entry["maml_outer"].append((time.process_time() - start) * 1e3)
        start = time.process_time()
        for _ in range(phases):
            trained = trainer._train_on(
                meta, batch, cfg.model.minibatch, cfg.model.learning_rate,
                cfg.model.train_passes,
            )
        entry["train_on"].append((time.process_time() - start) * 1e3 / phases)
        entry["digests"].append([digest(meta), digest(trained)])
    out[name] = entry
print(json.dumps(out))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    header, rounds = worker_rounds(sides, WORKER, [CONFIGS, SEED, PASSES, SGD_PHASES], ROUNDS)

    workloads = {}
    for name in CONFIGS:
        entry = {"sgd_rows": rounds[0]["before"][name]["rows"]}
        for timed in TIMED:
            ms = {side: [t for r in rounds for t in r[side][name][timed]] for side in sides}
            entry[timed] = {side: _quartiles(ms[side]) for side in sides}
            entry[timed]["speedup"] = (
                entry[timed]["before"]["median"] / entry[timed]["after"]["median"]
            )
            # Both sides of a round ran back to back, so a round's ratio is
            # steadier than the pooled times on a machine whose speed drifts.
            entry[timed]["round_speedups"] = [
                statistics.median(r["before"][name][timed])
                / statistics.median(r["after"][name][timed])
                for r in rounds
            ]
        entry["params_equal"] = all(
            r["before"][name]["digests"] == r["after"][name]["digests"] for r in rounds
        )
        workloads[name] = entry
    doc = {
        "label": args.label,
        "command": "transfer.maml_outer on the meta tasks meta_initialize builds, "
        "and trainer._train_on on their first k_replay rows, CPU time per call",
        **header,
        "seed": SEED,
        "passes": PASSES,
        "sgd_phases_per_pass": SGD_PHASES,
        "rounds": ROUNDS,
        "params_equal": all(entry["params_equal"] for entry in workloads.values()),
        "workloads": workloads,
    }
    record = Path(f"BENCH_{args.label}.json")
    record.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if not doc["params_equal"]:
        sys.exit(f"parameters differ between the checkouts; see {record}")


if __name__ == "__main__":
    main()
