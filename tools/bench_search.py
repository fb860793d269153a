"""Record greedy plan search's time per query on the benchmark workloads,
searched one query at a time and in one evaluation, as ``BENCH_<label>.json``.

    python3 tools/bench_search.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout, named after its commit (see
``tools/bench_pairs.py``, whose ``compare_layer`` runs this script).  The
worker, run in each checkout ``ROUNDS`` times, loads each of the ``CONFIGS`` with
``trainer.prepare_run(cfg, SEED)``, so it holds every train and test query's
compiled context as ``run_training`` does, and builds the run's initial
model, ``setup.initial_params()``.  It makes one
untimed pass of greedy ``trainer.plan_search`` (epsilon 0) over all of a
workload's queries, then ``PASSES`` timed passes, and prints each timed
pass's time per query and every pass's ``plan_repr``s.  Each call searches
alone, as serving does.  Then it times one ``trainer.evaluate_queries``
pass over the same train and test contexts, whose searches share scored
steps among queries of one shape as a run's evaluations do, and prints its
time per query and the latencies it returned.  The record holds per
workload the ``bench_pairs.summarize`` fields of the per-query times of the
single searches and, as ``evaluate_ms``, of the evaluations, and
whether both checkouts returned equal plans and latencies in every round;
the script exits non-zero, after writing it, if any differ.  Every time
is recorded raw and, as ``scaled``, at the reference machine speed
(``bench_pairs.SPEED_SAMPLER``).  ``CONFIGS`` is shared with
``tools/bench_maml.py``.
"""

from bench_pairs import SPEED_SAMPLER, compare_layer, raw_and_scaled, same

CONFIGS = {
    "star6": "data/star6/experiment.json",
    "chain8": "perfbench/workloads/chain8/experiment.json",
    "snowflake12": "perfbench/workloads/snowflake12/experiment.json",
}
SEED = 1
PASSES = 10
ROUNDS = 8

# Run in each checkout: one JSON object mapping each workload to its query
# count, the ms per query of each timed pass, the plans of every pass, and
# the ms per query and latencies of the evaluation; every time raw and
# scaled.
WORKER = SPEED_SAMPLER + """
import json, sys, time
from joinopt.plans import plan_repr
from joinopt.trainer import evaluate_queries, load_run_config, plan_search, prepare_run

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
    rounds = []
    for _ in range(passes):
        start = time.perf_counter()
        plans.append(search_all())
        rounds.append((start, time.perf_counter(), len(contexts)))
    start = time.perf_counter()
    latencies = evaluate_queries(contexts, params, cfg)
    evaluate = [(start, time.perf_counter(), len(contexts))]
    out[name] = {"queries": len(contexts), "ms": timed(rounds), "plans": plans,
                 "evaluate_ms": timed(evaluate), "latencies": latencies}
finish(out)
"""


def record(rounds: list[dict]) -> dict:
    """The record's fields from every round's worker output."""
    workloads = {
        name: {
            "queries": rounds[0]["before"][name]["queries"],
            **raw_and_scaled(rounds, lambda result: result[name]["ms"]),
            "evaluate_ms": raw_and_scaled(rounds, lambda result: result[name]["evaluate_ms"]),
            "plans_equal": same(
                rounds, lambda result: (result[name]["plans"], result[name]["latencies"])
            ),
        }
        for name in CONFIGS
    }
    return {
        "command": "trainer.plan_search(..., epsilon=0.0) over each workload's "
        "train and test queries, per query, then one trainer.evaluate_queries "
        "over them, per query",
        "seed": SEED,
        "passes": PASSES,
        "plans_equal": all(entry["plans_equal"] for entry in workloads.values()),
        "workloads": workloads,
    }


if __name__ == "__main__":
    compare_layer(__doc__, WORKER, [CONFIGS, SEED, PASSES], ROUNDS, record, "plans_equal")
