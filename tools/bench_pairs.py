"""Record a before/after benchmark comparison as ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout (a ``git archive`` of a commit is enough); the
file names each side by its directory's name, so name the directories after
their commits.  For each of the ``WORKLOADS``, ``perfbench/run.py --seed 1``
runs ``PAIRS`` times in each checkout, in alternating pairs (``alternate``).
Every run's JSON line is kept as printed.  After each pair the ``run.csv`` of
every workload process (the measured one and its set-up replicas) is
compared between the two sides with the ``wall_clock_ms`` column removed.
Each side then makes ``TRACED_PAIRS`` ``--trace 1`` runs per workload, in
alternating pairs in the same way, whose lines and ``run.csv`` comparisons
are kept too.  The file, written to the current directory, also records the
host, ``nproc``, Python, numpy and BLAS, and per end-to-end and per traced
metric the ``summarize`` fields over the pairs.  Lower is better for every
end-to-end metric.  ``run_csv_equal`` is true when every pair and traced
pair of every workload had equal ``run.csv`` files; the script exits
non-zero, after writing the file, if it is false.

This module also holds the before/after driver of the in-process tools
``tools/bench_dp.py``, ``tools/bench_search.py``, ``tools/bench_maml.py``
and ``tools/bench_replay.py``.  Each of them is a ``WORKER``, the Python
source that times one layer in a checkout and prints one JSON object, and a
function that turns every round's objects into its record's fields;
``compare_layer`` parses their arguments, runs the worker in the two
checkouts (``worker_rounds``) and writes the record (``write_record``).
Each worker starts with ``SPEED_SAMPLER``, so it reports every timed round
both raw and scaled to the reference machine speed of
``perfbench/speed.py``, as the end-to-end runs do.
"""

import argparse
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("before", "after")
PROCESSES = ("main", "replica1", "replica2")
WORKLOADS = ("snowflake12-train", "star6-train", "chain8-replay")
# A claimed gain must win nine of ten pairs on the workload it is claimed on.
PAIRS = 10
# A traced layer of a few milliseconds jitters by up to 1.8x between runs.
TRACED_PAIRS = 3
SEED = 1


# The first lines of every in-process worker: the checkout's
# ``perfbench/speed.py`` ``SpeedSampler`` runs from the start.
# ``timed(rounds)`` gives (start, end, calls) rounds of
# ``time.perf_counter()`` readings as ``raw`` time per call, in ms or in
# units of 1 / per_second s.  ``finish(out)`` stops the sampler, adds to
# each such entry its ``scaled`` times, at the reference speed of the
# samples taken around each round and without the sampler's own bursts (a
# few ms every 0.1 s, which the raw times include), and prints ``out``.
SPEED_SAMPLER = """
import json, sys, time
sys.path.insert(0, "perfbench")
import speed

sampler = speed.SpeedSampler()
sampler.start()
timings = []  # (rounds, per_second, entry) of every timed() entry


def timed(rounds, per_second=1e3):
    entry = {"raw": [per_second * (end - start) / calls for start, end, calls in rounds]}
    timings.append((rounds, per_second, entry))
    return entry


def finish(out):
    while not sampler.samples:  # a run shorter than one interval waits for one
        time.sleep(sampler.interval_s)
    sampler.stop()
    for rounds, per_second, entry in timings:
        entry["scaled"] = [per_second * seconds for seconds in sampler.scaled_rounds(rounds)]
    print(json.dumps(out))
"""


def parse_args(doc: str, argv=None) -> tuple[dict, str]:
    """The two checkouts, by side, and the record's label, from the required
    ``--before``, ``--after`` and ``--label``."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    return {"before": args.before.resolve(), "after": args.after.resolve()}, args.label


def write_record(label: str, sides: dict, fields: dict, equal: str) -> None:
    """Write ``BENCH_<label>.json`` to the current directory: the label, the
    checkouts' directory names, host, ``nproc`` and Python, then ``fields``.
    Then exit non-zero, naming the record, if the field ``equal`` is false."""
    doc = {
        "label": label,
        "checkouts": {side: path.name for side, path in sides.items()},
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **fields,
    }
    record = Path(f"BENCH_{label}.json")
    record.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if not doc[equal]:
        sys.exit(f"{equal} is false: outputs differ between the checkouts; see {record}")


def alternate(count: int, run) -> list[dict]:
    """``count`` rounds of ``run(index, side)`` on both sides, in alternating
    order: even rounds run the ``before`` side first.  Returns each round's
    results by side, in the order they ran."""
    return [
        {side: run(index, side) for side in (SIDES if index % 2 == 0 else SIDES[::-1])}
        for index in range(count)
    ]


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(rounds: list[dict], values) -> dict:
    """One timed item over the rounds, where ``values(result)`` is the list
    of one side's values in one round: each side's median and quartiles
    over every value of every round, the ratio of the medians
    (``speedup``, before over after), each round's ratio of the two sides'
    medians, and the rounds (``pairs``) each side won by the lower median.
    Ties count for neither side."""
    entry = {side: _quartiles([v for r in rounds for v in values(r[side])]) for side in SIDES}
    entry["speedup"] = entry["before"]["median"] / entry["after"]["median"]
    # Both sides of a round ran back to back, so a round's ratio is steadier
    # than the pooled values on a machine whose speed drifts.
    medians = [(statistics.median(values(r["before"])), statistics.median(values(r["after"])))
               for r in rounds]
    entry["round_speedups"] = [before / after for before, after in medians]
    entry["after_wins"] = sum(after < before for before, after in medians)
    entry["before_wins"] = sum(before < after for before, after in medians)
    entry["pairs"] = len(rounds)
    return entry


def raw_and_scaled(rounds: list[dict], values) -> dict:
    """``summarize`` of one timed item's raw times, ``values(result)["raw"]``,
    and, as ``scaled``, of its times at the reference speed."""
    return {
        **summarize(rounds, lambda result: values(result)["raw"]),
        "scaled": summarize(rounds, lambda result: values(result)["scaled"]),
    }


def same(rounds: list[dict], output) -> bool:
    """Whether ``output(result)`` was equal on both sides in every round."""
    return all(output(r["before"]) == output(r["after"]) for r in rounds)


def worker_rounds(sides: dict, worker: str, arg, rounds: int) -> list[dict]:
    """Run the Python source ``worker`` once per checkout in each of
    ``rounds`` rounds (``alternate``).  Each run is a subprocess in its
    checkout, with that checkout's ``src`` first on the path and one BLAS
    thread, given ``arg`` as a JSON argument; it prints one JSON object.
    Returns each round's objects by side.  A failing run exits with its
    checkout and stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(index, side):
        proc = subprocess.run(
            [sys.executable, "-c", worker, json.dumps(arg)],
            cwd=sides[side], env=dict(env, PYTHONPATH=str(sides[side] / "src")),
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.exit(f"{sides[side]}: worker exited {proc.returncode}\n{proc.stderr}")
        print(f"round {index} {side} done", file=sys.stderr)
        return json.loads(proc.stdout)

    return alternate(rounds, run)


def compare_layer(doc: str, worker: str, arg, rounds: int, fields, equal: str, argv=None):
    """The whole of an in-process tool: parse ``argv``, run ``worker`` with
    ``arg`` in both checkouts for ``rounds`` rounds, and write the record,
    ``rounds`` and then ``fields(results)``, exiting non-zero if its field
    ``equal`` is false."""
    sides, label = parse_args(doc, argv)
    results = worker_rounds(sides, worker, arg, rounds)
    write_record(label, sides, {"rounds": rounds, **fields(results)}, equal)


def run_once(checkout: Path, workload: str, trace: int, label: str) -> dict:
    """One ``perfbench/run.py`` call: its JSON line, the platform fields of
    its summary.json and each process's run.csv without the wall-clock
    column.  A failing call exits with ``label`` and the call's stderr."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{label}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    out = checkout / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{trace}"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return {
        "started_unix": round(started, 1),
        "line": json.loads(proc.stdout.strip().splitlines()[-1]),
        "platform": {k: summary[k] for k in ("host", "nproc", "python", "numpy", "blas")},
        "run_csv": {name: without_wall_clock(out / name / "run.csv") for name in PROCESSES},
    }


def without_wall_clock(path: Path) -> list[list[str]]:
    """The rows of the ``run.csv`` at ``path``, header first, without the
    wall-clock column."""
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    drop = rows[0].index("wall_clock_ms")
    return [row[:drop] + row[drop + 1 :] for row in rows]


def run_pairs(sides: dict, workload: str, count: int, trace: int) -> list[dict]:
    """``count`` alternating pairs of runs, each with whether the two sides'
    run.csv files were equal."""
    kind = "traced pair" if trace else "pair"

    def run(index, side):
        result = run_once(sides[side], workload, trace, f"{workload} {kind} {index} {side}")
        print(f"{workload} {kind} {index} {side}: {json.dumps(result['line'])}", file=sys.stderr)
        return result

    pairs = []
    for index, pair in enumerate(alternate(count, run)):
        equal = pair["before"].pop("run_csv") == pair["after"].pop("run_csv")
        pairs.append({"pair": index, "first": next(iter(pair)), **pair, "run_csv_equal": equal})
    return pairs


def metrics(pairs: list[dict]) -> dict:
    """Per metric of the runs' JSON lines, its ``summarize`` fields."""
    return {
        name: summarize(pairs, lambda result: [result["line"]["metrics"][name]["value"]])
        for name in pairs[0]["before"]["line"]["metrics"]
    }


def main(argv=None):
    sides, label = parse_args(__doc__, argv)
    workloads = {}
    for workload in WORKLOADS:
        pairs = run_pairs(sides, workload, PAIRS, 0)
        traced = run_pairs(sides, workload, TRACED_PAIRS, 1)
        workloads[workload] = {
            "pairs": pairs,
            "run_csv_equal_in_every_pair": all(p["run_csv_equal"] for p in pairs),
            "end_to_end": metrics(pairs),
            "traced_run_csv_equal": all(p["run_csv_equal"] for p in traced),
            "traced_pairs": traced,
            "traced": metrics(traced),
        }
    first = workloads[WORKLOADS[0]]["pairs"][0]["before"]["platform"]
    write_record(label, sides, {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED}",
        "workloads": workloads,
        **{k: first[k] for k in ("python", "numpy", "blas")},
        "run_csv_equal": all(
            w["run_csv_equal_in_every_pair"] and w["traced_run_csv_equal"]
            for w in workloads.values()
        ),
    }, "run_csv_equal")


if __name__ == "__main__":
    main()
