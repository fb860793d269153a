"""Record the replay buffer's write and sampling times on the chain8
workload as ``BENCH_<label>.json``.

    python3 tools/bench_replay.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout, named after its commit (see
``tools/bench_pairs.py``, whose ``compare_layer`` runs this script), at
commit ``5496cc8`` or later: both sides must build a ``ReplayBuffer`` from
its capacity and ``plan_rows``, and write several blocks in one
``extend``.  The worker, run in each checkout ``ROUNDS`` times, loads
``CONFIG`` with ``trainer.prepare_run(cfg, SEED)`` and builds the blocks a
run writes: for each of the config's iterations, one
``trainer.random_rollout`` per train query from one generator seeded with
``SEED``, each turned into a block by ``retention.extract_experiences`` at
the plan's noiseless latency.  On chain8 that is 23 400 rows, so a buffer of
the config's capacity (20 000) fills and then evicts, as in the
``chain8-replay`` benchmark workload.  It writes each iteration's blocks in
one ``extend(*blocks)``, as ``trainer.run_training`` does.  It times
``PASSES`` fills of a new buffer with every iteration, as microseconds per
``extend``, and then ``PASSES`` calls of ``retention.sample_replay`` with
the config's retention settings and the run's initial model on each of the
``SIZES`` cases: the first iterations up to 2 000 and 10 000 rows, and the
full buffer after every iteration, which has evicted.  It prints the times
and SHA-256 digests of each case's ``td_error`` bytes, sampling
probabilities and batch.  The record holds per timed item the
``bench_pairs.summarize`` fields, and whether both checkouts gave equal
digests in every round; the script exits non-zero, after writing it, if any
digests differ.
"""

from bench_pairs import compare_layer, same, summarize

CONFIG = "perfbench/workloads/chain8/experiment.json"
SEED = 1
SIZES = {"rows_2000": 2_000, "rows_10000": 10_000, "full_evicting": None}
PASSES = 5
ROUNDS = 8

# Run in each checkout: one JSON object with the rows written, the us per
# extend of each fill, and per sampling case its rows, the ms of each call
# and the digests of its results.
WORKER = """
import hashlib, json, sys, time
import numpy as np
from joinopt import trainer
from joinopt.retention import ReplayBuffer, extract_experiences, sample_replay, td_error

config, seed, sizes, passes = json.loads(sys.argv[1])
cfg = trainer.load_run_config(config)
setup = trainer.prepare_run(cfg, seed)
params = setup.initial_params()
rng = np.random.default_rng(seed)
iterations = []  # each iteration's blocks, one per train query
for iteration in range(1, cfg.iterations + 1):
    plans = [(ctx, trainer.random_rollout(ctx, rng)) for ctx in setup.train]
    iterations.append(
        [extract_experiences(plan, ctx, ctx.latency(plan), iteration) for ctx, plan in plans]
    )
plan_rows = max(len(ctx.relations) for ctx in setup.train) - 1


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


extend_us = []
for _ in range(passes):
    buffer = ReplayBuffer(cfg.retention.capacity, plan_rows)
    start = time.perf_counter()
    for blocks in iterations:
        buffer.extend(*blocks)
    extend_us.append((time.perf_counter() - start) * 1e6 / len(iterations))

cases = {}
for name, size in sizes.items():
    buffer = ReplayBuffer(cfg.retention.capacity, plan_rows)
    for blocks in iterations:
        if size is not None and len(buffer) >= size:
            break
        buffer.extend(*blocks)
    ms = []
    for _ in range(passes):
        start = time.perf_counter()
        batch, stats = sample_replay(buffer, params, cfg.retention, seed)
        ms.append((time.perf_counter() - start) * 1e3)
    cases[name] = {
        "rows": len(buffer),
        "written": buffer.end,
        "ms": ms,
        "td_error": digest(td_error(buffer, params, cfg.retention.gamma)),
        "probabilities": digest(stats.probabilities),
        "batch": digest(*batch),
    }
print(json.dumps({
    "extends": len(iterations),
    "blocks": sum(map(len, iterations)),
    "rows_written": sum(len(block) for blocks in iterations for block in blocks),
    "extend_us": extend_us,
    "sample_replay": cases,
}))
"""

DIGESTS = ("td_error", "probabilities", "batch")


def record(rounds: list[dict]) -> dict:
    """The record's fields from every round's worker output."""
    first = rounds[0]["before"]
    sample_replay = {
        name: {
            "rows": first["sample_replay"][name]["rows"],
            "written": first["sample_replay"][name]["written"],
            **summarize(rounds, lambda result: result["sample_replay"][name]["ms"]),
            "digests_equal": same(
                rounds, lambda result: [result["sample_replay"][name][d] for d in DIGESTS]
            ),
        }
        for name in SIZES
    }
    return {
        "command": "ReplayBuffer.extend of each iteration's blocks, in us per call, "
        "and retention.sample_replay, in ms per call, on chain8",
        "config": CONFIG,
        "seed": SEED,
        "passes": PASSES,
        "extends": first["extends"],
        "blocks": first["blocks"],
        "rows_written": first["rows_written"],
        "digests_equal": all(entry["digests_equal"] for entry in sample_replay.values()),
        "extend_us": summarize(rounds, lambda result: result["extend_us"]),
        "sample_replay_ms": sample_replay,
    }


if __name__ == "__main__":
    compare_layer(__doc__, WORKER, [CONFIG, SEED, SIZES, PASSES], ROUNDS, record, "digests_equal")
