"""Record an iteration's execution and experience extraction and the
replay buffer's write and sampling times on the chain8 workload as
``BENCH_<label>.json``.

    python3 tools/bench_replay.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout, named after its commit (see
``tools/bench_pairs.py``, whose ``compare_layer`` runs this script), at
commit ``c92ff57`` or later: the worker calls ``trainer.search_plans``,
which that commit added, and ``trainer.execute_plans``.  The worker, run in each checkout
``ROUNDS`` times, loads ``CONFIG`` with ``trainer.prepare_run(cfg, SEED)``
and builds the blocks a run writes: for each of the config's iterations,
one ``trainer.random_rollout`` per train query from one generator seeded
with ``SEED``, each turned into a block by ``retention.extract_experiences`` at
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
probabilities and batch.

Then, for each of the ``EXECUTED`` iterations, it searches every train
query as ``run_training`` does at that iteration, with
``trainer.search_plans`` (its seeds, its epsilon decayed by the same
running product) under the initial model, and times ``EXEC_PASSES``
passes of executing and extracting those 120 plans with
``trainer.execute_plans``, which walks and featurizes each distinct plan
object once.  Iteration 1 (epsilon 0.5) holds 95 distinct plan objects
and iteration 50 holds 25, about the mean of a whole run.  It prints
each pass's ms and a SHA-256 digest of the blocks.

Every timed round is reported raw and scaled to the reference machine speed
(``bench_pairs.SPEED_SAMPLER``).  The record holds per timed item the
``bench_pairs.summarize`` fields of both, and whether both checkouts gave
equal digests in every round; the script exits non-zero, after writing it,
if any digests differ.
"""

from bench_pairs import SPEED_SAMPLER, compare_layer, raw_and_scaled, same

CONFIG = "perfbench/workloads/chain8/experiment.json"
SEED = 1
SIZES = {"rows_2000": 2_000, "rows_10000": 10_000, "full_evicting": None}
PASSES = 5
EXECUTED = (1, 50)
EXEC_PASSES = 40
ROUNDS = 8

# Run in each checkout: one JSON object with the rows written, the us per
# extend of each fill, per sampling case its rows, the ms of each call and
# the digests of its results, and per executed iteration its distinct plans,
# the ms of each pass and the digest of its blocks; every time raw and
# scaled.
WORKER = SPEED_SAMPLER + """
import hashlib, inspect, json, sys, time
import numpy as np
from joinopt import trainer
from joinopt.retention import ReplayBuffer, extract_experiences, sample_replay, td_error

config, seed, sizes, passes, executed, exec_passes = json.loads(sys.argv[1])
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
# A ring from before the rows kept their successors' state ids also takes,
# as spare rows beyond its capacity, the most joins one plan has.
ring_args = [cfg.retention.capacity]
if len(inspect.signature(ReplayBuffer).parameters) > 1:
    ring_args.append(max(len(ctx.relations) for ctx in setup.train) - 1)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


fills = []
for _ in range(passes):
    buffer = ReplayBuffer(*ring_args)
    start = time.perf_counter()
    for blocks in iterations:
        buffer.extend(*blocks)
    fills.append((start, time.perf_counter(), len(iterations)))

cases = {}
for name, size in sizes.items():
    buffer = ReplayBuffer(*ring_args)
    for blocks in iterations:
        if size is not None and len(buffer) >= size:
            break
        buffer.extend(*blocks)
    calls = []
    for _ in range(passes):
        start = time.perf_counter()
        batch, stats = sample_replay(buffer, params, cfg.retention, seed)
        calls.append((start, time.perf_counter(), 1))
    cases[name] = {
        "rows": len(buffer),
        "written": buffer.end,
        "ms": timed(calls),
        "td_error": digest(td_error(buffer, params, cfg.retention.gamma)),
        "probabilities": digest(stats.probabilities),
        "batch": digest(*batch),
    }

rng = np.random.default_rng(0)
n_train = len(setup.train)
epsilons = [cfg.search.epsilon]  # each iteration's, decayed as run_training decays it
for _ in range(max(executed) - 1):
    epsilons.append(epsilons[-1] * cfg.search.epsilon_decay)
execution = {}
for iteration in executed:
    states = trainer.generator_states(trainer.derive_seeds(
        [(seed, tag, iteration, q) for tag in ("search", "exec") for q in range(n_train)]
    ))
    epsilon = epsilons[iteration - 1]
    plans = trainer.search_plans(setup.train, params, cfg, epsilon, rng, states[:n_train])
    calls = []
    for _ in range(exec_passes):
        start = time.perf_counter()
        blocks = trainer.execute_plans(setup.train, plans, states[n_train:], rng, iteration)
        calls.append((start, time.perf_counter(), 1))
    h = hashlib.sha256()
    for block in blocks:
        h.update(repr((block.query_id, block.iteration, block.latency_ms)).encode())
        h.update(block.features.tobytes())
        h.update(block.parent.tobytes())
    execution[f"iteration_{iteration}"] = {
        "epsilon": epsilon,
        "plans": len(plans),
        "distinct_plans": len({id(plan) for plan in plans}),
        "ms": timed(calls),
        "blocks": h.hexdigest(),
    }
finish({
    "extends": len(iterations),
    "blocks": sum(map(len, iterations)),
    "rows_written": sum(len(block) for blocks in iterations for block in blocks),
    "extend_us": timed(fills, 1e6),
    "sample_replay": cases,
    "execute_plans": execution,
})
"""

DIGESTS = ("td_error", "probabilities", "batch")


def record(rounds: list[dict]) -> dict:
    """The record's fields from every round's worker output."""
    first = rounds[0]["before"]
    sample_replay = {
        name: {
            "rows": first["sample_replay"][name]["rows"],
            "written": first["sample_replay"][name]["written"],
            **raw_and_scaled(rounds, lambda result: result["sample_replay"][name]["ms"]),
            "digests_equal": same(
                rounds, lambda result: [result["sample_replay"][name][d] for d in DIGESTS]
            ),
        }
        for name in SIZES
    }
    execute_plans = {
        name: {
            **{k: first["execute_plans"][name][k] for k in ("epsilon", "plans", "distinct_plans")},
            **raw_and_scaled(rounds, lambda result: result["execute_plans"][name]["ms"]),
            "digests_equal": same(rounds, lambda result: result["execute_plans"][name]["blocks"]),
        }
        for name in first["execute_plans"]
    }
    return {
        "command": "ReplayBuffer.extend of each iteration's blocks, in us per call, "
        "retention.sample_replay, in ms per call, and an iteration's execution and "
        "extraction of its train plans, in ms per pass, on chain8",
        "config": CONFIG,
        "seed": SEED,
        "passes": PASSES,
        "exec_passes": EXEC_PASSES,
        "extends": first["extends"],
        "blocks": first["blocks"],
        "rows_written": first["rows_written"],
        "digests_equal": all(
            entry["digests_equal"]
            for entry in [*sample_replay.values(), *execute_plans.values()]
        ),
        "extend_us": raw_and_scaled(rounds, lambda result: result["extend_us"]),
        "sample_replay_ms": sample_replay,
        "execute_plans_ms": execute_plans,
    }


if __name__ == "__main__":
    compare_layer(
        __doc__, WORKER, [CONFIG, SEED, SIZES, PASSES, EXECUTED, EXEC_PASSES], ROUNDS, record,
        "digests_equal",
    )
