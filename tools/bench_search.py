"""Record greedy plan search's time per query on the benchmark workloads as
``BENCH_<label>.json``.

    python3 tools/bench_search.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout (a ``git archive`` of a commit is enough); the
file names each side by its directory's name, so name the directories after
their commits.  A subprocess per checkout, with that checkout's ``src``
first on the path and one BLAS thread, loads each of the ``CONFIGS`` with
``trainer.prepare_run(cfg, SEED)``, so it holds every train and test query's
compiled context as ``run_training`` does, and builds the run's initial
model, ``setup.initial_params()``.  It makes one
untimed pass of greedy ``trainer.plan_search`` (epsilon 0) over all of a
workload's queries, then ``PASSES`` timed passes, and prints each timed
pass's time per query and every pass's ``plan_repr``s.  The two checkouts run ``ROUNDS``
times in alternating order: even rounds run the ``before`` side first
(``bench_pairs.worker_rounds``).  The file, written to the current
directory, records per workload each side's median and quartiles of the
per-query time over every timed pass of every round, the ratio of the
medians, each round's ratio of the two sides' medians, and whether both
checkouts returned equal plans in every round.  The script exits non-zero,
after writing the file, if any plans differ.
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
PASSES = 10
ROUNDS = 8

# Run in each checkout: one JSON object mapping each workload to its query
# count, the ms per query of each timed pass and the plans of every pass.
WORKER = """
import json, sys, time
from joinopt.plans import plan_repr
from joinopt.trainer import load_run_config, plan_search, prepare_run

configs, seed, passes = json.loads(sys.argv[1])
out = {}
for name, path in configs.items():
    cfg = load_run_config(path)
    setup = prepare_run(cfg, seed)
    contexts = setup.train + setup.test
    params = setup.initial_params()

    def search_all():
        return [
            plan_repr(plan_search(
                ctx.query, params, ctx.catalog, cfg.cost_model,
                beam_width=cfg.search.beam_width, epsilon=0.0, rng_seed=0,
                left_deep_only=cfg.search.left_deep_only,
            ))
            for ctx in contexts
        ]

    plans = [search_all()]
    ms = []
    for _ in range(passes):
        start = time.perf_counter()
        plans.append(search_all())
        ms.append((time.perf_counter() - start) * 1e3 / len(contexts))
    out[name] = {"queries": len(contexts), "ms": ms, "plans": plans}
print(json.dumps(out))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    header, rounds = worker_rounds(sides, WORKER, [CONFIGS, SEED, PASSES], ROUNDS)

    workloads = {}
    for name in CONFIGS:
        entry = {"queries": rounds[0]["before"][name]["queries"]}
        for side in sides:
            entry[side] = _quartiles([ms for r in rounds for ms in r[side][name]["ms"]])
        entry["speedup"] = entry["before"]["median"] / entry["after"]["median"]
        # Both sides of a round ran back to back, so a round's ratio is
        # steadier than the pooled times on a machine whose speed drifts.
        entry["round_speedups"] = [
            statistics.median(r["before"][name]["ms"]) / statistics.median(r["after"][name]["ms"])
            for r in rounds
        ]
        entry["plans_equal"] = all(
            r["before"][name]["plans"] == r["after"][name]["plans"] for r in rounds
        )
        workloads[name] = entry
    doc = {
        "label": args.label,
        "command": "trainer.plan_search(..., epsilon=0.0) over each workload's "
        "train and test queries, per query",
        **header,
        "seed": SEED,
        "passes": PASSES,
        "rounds": ROUNDS,
        "plans_equal": all(entry["plans_equal"] for entry in workloads.values()),
        "workloads": workloads,
    }
    record = Path(f"BENCH_{args.label}.json")
    record.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if not doc["plans_equal"]:
        sys.exit(f"plans differ between the checkouts; see {record}")


if __name__ == "__main__":
    main()
