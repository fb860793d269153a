"""Record the expert DP's time by query size and join-graph shape as
``BENCH_<label>.json``.

    python3 tools/bench_dp.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout (a ``git archive`` of a commit is enough); the
file names each side by its directory's name, so name the directories after
their commits.  ``workload_gen.generate`` draws, for each shape (chain,
star, snowflake) and size (6, 9 and 12 relations), a schema of that many
tables and one query over all of them, once per seed in ``SEEDS``.  A
subprocess per checkout, with that checkout's ``src`` first on the path and
one BLAS thread, times ``simulator.expert_plan`` on each query ``REPEATS``
times and prints the times and each plan's ``plan_repr``.  The two checkouts
run ``ROUNDS`` times in alternating order: even rounds run the ``before``
side first (``bench_pairs.worker_rounds``).  The file, written to the
current directory, records per cell each side's median and quartiles of the
per-call times over every round, the ratio of the medians, and whether both
checkouts returned equal plans in every round.  The script exits non-zero,
after writing the file, if any plans differ.
"""

import argparse
import json
import sys
from pathlib import Path

from bench_pairs import _quartiles, worker_rounds

SHAPES = ("chain", "star", "snowflake")
SIZES = (6, 9, 12)
SEEDS = (1, 2, 3)
REPEATS = 5
ROUNDS = 3

# Run in each checkout: one JSON object mapping "shape-size" to the per-call
# times in ms and the plans of that cell's queries, in seed order.
WORKER = """
import json, sys, time
from joinopt.catalog import catalog_from_doc, workload_from_doc
from joinopt.plans import plan_repr
from joinopt.simulator import CostModelConfig, expert_plan
from joinopt.workload_gen import generate

shapes, sizes, seeds, repeats = json.loads(sys.argv[1])
cfg = CostModelConfig()
out = {}
for shape in shapes:
    for size in sizes:
        queries = []
        for seed in seeds:
            catalog_doc, train_doc, _ = generate(
                size, shape, 1, 0, seed, min_relations=size, max_relations=size
            )
            catalog = catalog_from_doc(catalog_doc, "catalog")
            queries += [(q, catalog) for q in workload_from_doc(train_doc, catalog, "train")]
        times = []
        for _ in range(repeats):
            for query, catalog in queries:
                start = time.perf_counter()
                expert_plan(query, catalog, cfg)
                times.append((time.perf_counter() - start) * 1e3)
        plans = [plan_repr(expert_plan(q, c, cfg)) for q, c in queries]
        out[f"{shape}-{size}"] = {"ms": times, "plans": plans}
print(json.dumps(out))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    header, rounds = worker_rounds(sides, WORKER, [SHAPES, SIZES, SEEDS, REPEATS], ROUNDS)

    cells = {}
    for name in rounds[0]["before"]:
        shape, size = name.rsplit("-", 1)
        cell = {"shape": shape, "relations": int(size), "queries": len(SEEDS)}
        for side in sides:
            cell[side] = _quartiles([ms for r in rounds for ms in r[side][name]["ms"]])
        cell["speedup"] = cell["before"]["median"] / cell["after"]["median"]
        cell["plans_equal"] = all(
            r["before"][name]["plans"] == r["after"][name]["plans"] for r in rounds
        )
        cells[name] = cell
    doc = {
        "label": args.label,
        "command": "simulator.expert_plan(query, catalog, CostModelConfig())",
        **header,
        "seeds": list(SEEDS),
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "plans_equal": all(cell["plans_equal"] for cell in cells.values()),
        "cells": cells,
    }
    record = Path(f"BENCH_{args.label}.json")
    record.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if not doc["plans_equal"]:
        sys.exit(f"plans differ between the checkouts; see {record}")


if __name__ == "__main__":
    main()
