"""Record the replay buffer's write and sampling times on the chain8
workload as ``BENCH_<label>.json``.

    python3 tools/bench_replay.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout (a ``git archive`` of a commit is enough); the
file names each side by its directory's name, so name the directories after
their commits.  A subprocess per checkout, with that checkout's ``src``
first on the path and one BLAS thread, loads ``CONFIG`` with
``trainer.prepare_run(cfg, SEED)`` and builds the blocks a run writes: for
each of the config's iterations, one ``trainer.random_rollout`` per train
query from one generator seeded with ``SEED``, each turned into a block by
``retention.extract_experiences`` at the plan's noiseless latency.  On
chain8 that is 23 400 rows, so a buffer of the config's capacity (20 000)
fills and then evicts, as in the ``chain8-replay`` benchmark workload.  It
times ``PASSES`` fills of a new buffer with every block, as microseconds
per ``extend``, and then ``PASSES`` calls of ``retention.sample_replay``
with the config's retention settings and the run's initial model on each
of the ``SIZES`` cases: the first blocks up to 2 000 and 10 000 rows, and
the full buffer after every block, which has evicted.  It prints the times
and SHA-256 digests of each case's ``td_error`` bytes, sampling
probabilities and batch.  The two checkouts run ``ROUNDS`` times in
alternating order: even rounds run the ``before`` side first
(``bench_pairs.worker_rounds``).  The file, written to the current
directory, records per timed item each side's median and quartiles over
every pass of every round, the ratio of the medians, each round's ratio of
the two sides' medians, and whether both checkouts gave equal digests in
every round.  The script exits non-zero, after writing the file, if any
digests differ.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_pairs import _quartiles, worker_rounds

CONFIG = "perfbench/workloads/chain8/experiment.json"
SEED = 1
SIZES = {"rows_2000": 2_000, "rows_10000": 10_000, "full_evicting": None}
PASSES = 5
ROUNDS = 8

# Run in each checkout: one JSON object with the rows written, the us per
# extend of each fill, and per sampling case its rows, the ms of each call
# and the digests of its results.
WORKER = """
import hashlib, inspect, json, sys, time
import numpy as np
from joinopt import trainer
from joinopt.retention import ReplayBuffer, extract_experiences, sample_replay, td_error

config, seed, sizes, passes = json.loads(sys.argv[1])
cfg = trainer.load_run_config(config)
setup = trainer.prepare_run(cfg, seed)
params = setup.initial_params()
rng = np.random.default_rng(seed)
blocks = []
for iteration in range(1, cfg.iterations + 1):
    for ctx in setup.train:
        plan = trainer.random_rollout(ctx, rng)
        blocks.append(extract_experiences(plan, ctx, ctx.latency(plan), iteration))
plan_rows = max(len(ctx.relations) for ctx in setup.train) - 1


def new_buffer():
    # Delete once both checkouts take plan_rows.
    if "plan_rows" in inspect.signature(ReplayBuffer).parameters:
        return ReplayBuffer(cfg.retention.capacity, plan_rows)
    return ReplayBuffer(cfg.retention.capacity)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


extend_us = []
for _ in range(passes):
    buffer = new_buffer()
    start = time.perf_counter()
    for block in blocks:
        buffer.extend(block)
    extend_us.append((time.perf_counter() - start) * 1e6 / len(blocks))

cases = {}
for name, size in sizes.items():
    buffer = new_buffer()
    for block in blocks:
        if size is not None and len(buffer) >= size:
            break
        buffer.extend(block)
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
    "blocks": len(blocks),
    "rows_written": sum(map(len, blocks)),
    "extend_us": extend_us,
    "sample_replay": cases,
}))
"""

DIGESTS = ("td_error", "probabilities", "batch")


def _entry(rounds, times) -> dict:
    """Each side's median and quartiles of ``times(result)`` pooled over the
    rounds, the ratio of the medians and each round's ratio."""
    entry = {
        side: _quartiles([t for r in rounds for t in times(r[side])])
        for side in ("before", "after")
    }
    entry["speedup"] = entry["before"]["median"] / entry["after"]["median"]
    # Both sides of a round ran back to back, so a round's ratio is steadier
    # than the pooled times on a machine whose speed drifts.
    entry["round_speedups"] = [
        statistics.median(times(r["before"])) / statistics.median(times(r["after"]))
        for r in rounds
    ]
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    header, rounds = worker_rounds(sides, WORKER, [CONFIG, SEED, SIZES, PASSES], ROUNDS)

    first = rounds[0]["before"]
    sample_replay = {}
    for name in SIZES:
        entry = {
            "rows": first["sample_replay"][name]["rows"],
            "written": first["sample_replay"][name]["written"],
            **_entry(rounds, lambda result: result["sample_replay"][name]["ms"]),
        }
        entry["digests_equal"] = all(
            r["before"]["sample_replay"][name][d] == r["after"]["sample_replay"][name][d]
            for r in rounds
            for d in DIGESTS
        )
        sample_replay[name] = entry
    doc = {
        "label": args.label,
        "command": "ReplayBuffer.extend over a run's blocks, in us per call, and "
        "retention.sample_replay, in ms per call, on chain8",
        **header,
        "config": CONFIG,
        "seed": SEED,
        "passes": PASSES,
        "rounds": ROUNDS,
        "blocks": first["blocks"],
        "rows_written": first["rows_written"],
        "digests_equal": all(entry["digests_equal"] for entry in sample_replay.values()),
        "extend_us": _entry(rounds, lambda result: result["extend_us"]),
        "sample_replay_ms": sample_replay,
    }
    record = Path(f"BENCH_{args.label}.json")
    record.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if not doc["digests_equal"]:
        sys.exit(f"sampling results differ between the checkouts; see {record}")


if __name__ == "__main__":
    main()
