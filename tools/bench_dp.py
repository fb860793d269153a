"""Record the expert DP's time by query size and join-graph shape as
``BENCH_<label>.json``.

    python3 tools/bench_dp.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout, named after its commit (see
``tools/bench_pairs.py``, whose ``compare_layer`` runs this script).
``workload_gen.generate draws, for each shape (chain,
star, snowflake) and size (6, 9 and 12 relations), a schema of that many
tables and one query over all of them, once per seed in ``SEEDS``.  The
worker, run in each checkout ``ROUNDS`` times, times
``simulator.expert_plan`` on each query ``REPEATS`` times and prints the
times and each plan's ``plan_repr``.  The record holds per cell the
``bench_pairs.summarize`` fields of the per-call times and whether both
checkouts returned equal plans in every round; the script exits non-zero,
after writing it, if any plans differ.  Every time is recorded raw and, as
``scaled``, at the reference machine speed (``bench_pairs.SPEED_SAMPLER``).
"""

from bench_pairs import SPEED_SAMPLER, compare_layer, raw_and_scaled, same

SHAPES = ("chain", "star", "snowflake")
SIZES = (6, 9, 12)
SEEDS = (1, 2, 3)
REPEATS = 5
# Ten rounds, so that a cell's after_wins can meet the nine-of-ten rule.
ROUNDS = 10

# Run in each checkout: one JSON object mapping "shape-size" to the per-call
# times in ms, raw and scaled, and the plans of that cell's queries, in seed
# order.
WORKER = SPEED_SAMPLER + """
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
        calls = []
        for _ in range(repeats):
            for query, catalog in queries:
                start = time.perf_counter()
                expert_plan(query, catalog, cfg)
                calls.append((start, time.perf_counter(), 1))
        plans = [plan_repr(expert_plan(q, c, cfg)) for q, c in queries]
        out[f"{shape}-{size}"] = {"ms": timed(calls), "plans": plans}
finish(out)
"""


def record(rounds: list[dict]) -> dict:
    """The record's fields from every round's worker output."""
    cells = {}
    for name in rounds[0]["before"]:
        shape, size = name.rsplit("-", 1)
        cells[name] = {
            "shape": shape, "relations": int(size), "queries": len(SEEDS),
            **raw_and_scaled(rounds, lambda result: result[name]["ms"]),
            "plans_equal": same(rounds, lambda result: result[name]["plans"]),
        }
    return {
        "command": "simulator.expert_plan(query, catalog, CostModelConfig())",
        "seeds": list(SEEDS),
        "repeats": REPEATS,
        "plans_equal": all(cell["plans_equal"] for cell in cells.values()),
        "cells": cells,
    }


if __name__ == "__main__":
    compare_layer(__doc__, WORKER, [SHAPES, SIZES, SEEDS, REPEATS], ROUNDS, record, "plans_equal")
