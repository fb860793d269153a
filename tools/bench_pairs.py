"""Record a before/after benchmark comparison as ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --before DIR --after DIR --label NAME

DIR is a joinopt checkout (a ``git archive`` of a commit is enough); the
file names each side by its directory's name, so name the directories after
their commits.  For each of the ``WORKLOADS``, ``perfbench/run.py --seed 1``
runs ``PAIRS`` times in each checkout, in alternating pairs: even pairs run
the ``before`` side first, odd pairs the ``after`` side.  Every
run's JSON line is kept as printed.  After each pair the ``run.csv`` of
every workload process (the measured one and its set-up replicas) is
compared between the two sides with the ``wall_clock_ms`` column removed.
Each side then makes ``TRACED_PAIRS`` ``--trace 1`` runs per workload, in
alternating pairs in the same way, whose lines and ``run.csv`` comparisons
are kept too.  The file, written to the current directory, also records the
host, ``nproc``, Python, numpy and BLAS; per end-to-end metric each side's
median and quartiles and the number of pairs the ``after`` side won (lower
is better for every end-to-end metric; ties count for neither side); and per
traced metric each side's median and quartiles.  The script exits
non-zero, after writing the file, if any pair or traced pair of any
workload had ``run.csv`` files that differ.

``tools/bench_dp.py``, ``tools/bench_search.py`` and ``tools/bench_maml.py``
time one layer in process instead; each runs its worker in the two
checkouts through ``worker_rounds`` and summarizes its times with
``_quartiles``.
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

PROCESSES = ("main", "replica1", "replica2")
WORKLOADS = ("snowflake12-train", "star6-train", "chain8-replay")
# A claimed gain must win nine of ten pairs on the workload it is claimed on.
PAIRS = 10
# A traced layer of a few milliseconds jitters by up to 1.8x between runs.
TRACED_PAIRS = 3
SEED = 1


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
        "run_csv": {name: _without_wall_clock(out / name / "run.csv") for name in PROCESSES},
    }


def _without_wall_clock(path: Path) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    drop = rows[0].index("wall_clock_ms")
    return [row[:drop] + row[drop + 1 :] for row in rows]


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def worker_rounds(sides: dict, worker: str, arg, rounds: int) -> tuple[dict, list[dict]]:
    """Run the Python source ``worker`` once per checkout in each of
    ``rounds`` rounds, in alternating order: even rounds run the ``before``
    side first.  Each run is a subprocess in its checkout, with that
    checkout's ``src`` first on the path and one BLAS thread, given ``arg``
    as a JSON argument; it prints one JSON object.  Returns the record's
    header (the checkouts' directory names, host, ``nproc`` and Python) and
    each round's objects by side.  A failing run exits with its checkout and
    stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    for index in range(rounds):
        order = ("before", "after") if index % 2 == 0 else ("after", "before")
        result = {}
        for side in order:
            proc = subprocess.run(
                [sys.executable, "-c", worker, json.dumps(arg)],
                cwd=sides[side], env=dict(env, PYTHONPATH=str(sides[side] / "src")),
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.exit(f"{sides[side]}: worker exited {proc.returncode}\n{proc.stderr}")
            result[side] = json.loads(proc.stdout)
        results.append(result)
        print(f"round {index} done", file=sys.stderr)
    header = {
        "checkouts": {side: path.name for side, path in sides.items()},
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    return header, results


def run_pairs(sides: dict, workload: str, count: int, trace: int) -> list[dict]:
    """``count`` alternating pairs of runs, each with whether the two sides'
    run.csv files were equal."""
    kind = "traced pair" if trace else "pair"
    pairs = []
    for index in range(count):
        order = ("before", "after") if index % 2 == 0 else ("after", "before")
        pair = {"pair": index, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], workload, trace, f"{workload} {kind} {index} {side}")
            print(f"{workload} {kind} {index} {side}: {json.dumps(pair[side]['line'])}",
                  file=sys.stderr)
        pair["run_csv_equal"] = pair["before"].pop("run_csv") == pair["after"].pop("run_csv")
        pairs.append(pair)
    return pairs


def _values(pairs: list[dict], side: str, name: str) -> list[float]:
    return [p[side]["line"]["metrics"][name]["value"] for p in pairs]


def quartiles(pairs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles."""
    return {
        name: {side: _quartiles(_values(pairs, side, name)) for side in ("before", "after")}
        for name in pairs[0]["before"]["line"]["metrics"]
    }


def compare(pairs: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the pairs
    the after side won."""
    out = quartiles(pairs)
    for name, entry in out.items():
        before, after = _values(pairs, "before", name), _values(pairs, "after", name)
        entry["after_wins"] = sum(a < b for a, b in zip(after, before))
        entry["before_wins"] = sum(b < a for a, b in zip(after, before))
        entry["pairs"] = len(pairs)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    doc = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED}",
        "checkouts": {side: path.name for side, path in sides.items()},
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    for workload in WORKLOADS:
        pairs = run_pairs(sides, workload, PAIRS, 0)
        traced = run_pairs(sides, workload, TRACED_PAIRS, 1)
        doc["workloads"][workload] = {
            "pairs": pairs,
            "run_csv_equal_in_every_pair": all(p["run_csv_equal"] for p in pairs),
            "end_to_end": compare(pairs),
            "traced_run_csv_equal": all(p["run_csv_equal"] for p in traced),
            "traced_pairs": traced,
            "traced": quartiles(traced),
        }
    first = next(iter(doc["workloads"].values()))["pairs"][0]["before"]["platform"]
    doc.update({k: first[k] for k in ("python", "numpy", "blas")})
    record = Path(f"BENCH_{args.label}.json")
    record.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    differ = [
        name for name, entry in doc["workloads"].items()
        if not (entry["run_csv_equal_in_every_pair"] and entry["traced_run_csv_equal"])
    ]
    if differ:
        sys.exit(f"run.csv differs between the checkouts on {', '.join(differ)}; see {record}")


if __name__ == "__main__":
    main()
