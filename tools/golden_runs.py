"""Record the acceptance fixture's bundled star6 runs as ``tests/golden_runs.json``.

    PYTHONPATH=src python3 tools/golden_runs.py

``arm_configs`` gives the four arms that ``tests/test_acceptance.py`` runs
(six seeds each, 24 runs).  The file keeps, per run, one digest per
evaluation record and one digest of the final parameters, and it records
the numpy and BLAS builds that made it.  A record's digest is the first four
hex digits of the SHA-256 of each of its ``run.csv`` cells, in column order,
with ``wall_clock_ms`` left out; cells are written by ``write_run_csv``, so
floats appear by ``repr``.  Per-cell digits let ``mismatches`` name the
first differing column, not only the record.

The acceptance suite compares its runs with the file.  Only a declared
behaviour change regenerates it; a speedup never does.
"""

import csv
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_runs.json"
BUNDLE = ROOT / "data" / "star6"
CELL_DIGITS = 4


def arm_configs(cfg) -> dict:
    """The acceptance suite's four arms of the bundled config ``cfg``.

    Criterion 7 isolates retention: transfer off in both of its arms, which
    plan greedily (beam width 1), so the comparison measures retention
    against forgetting of the greedy planner's own choices.  Criterion 8
    isolates transfer: hybrid retention and the configured beam in both of
    its arms."""
    no_transfer = dataclasses.replace(
        cfg, transfer=dataclasses.replace(cfg.transfer, enabled=False)
    )
    greedy = dataclasses.replace(
        no_transfer, search=dataclasses.replace(no_transfer.search, beam_width=1)
    )
    greedy_no_ret = dataclasses.replace(
        greedy, retention=dataclasses.replace(greedy.retention, enabled=False)
    )
    return {
        "hybrid": greedy,
        "no_retention": greedy_no_ret,
        "maml": cfg,
        "random_init": no_transfer,
    }


def builds() -> dict:
    """The numpy version and the BLAS build numpy links."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _table(run) -> list[list[str]]:
    """The run's ``run.csv`` as written, header first, without the
    wall-clock column."""
    from joinopt.trainer import write_run_csv

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        write_run_csv(run, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    drop = rows[0].index("wall_clock_ms")
    return [row[:drop] + row[drop + 1 :] for row in rows]


def _cell_digest(cell: str) -> str:
    return hashlib.sha256(cell.encode("utf-8")).hexdigest()[:CELL_DIGITS]


def params_digest(params) -> str:
    h = hashlib.sha256(repr(params.layer_sizes).encode("ascii"))
    for w, b in zip(params.weights, params.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()[:16]


def run_digests(run) -> dict:
    header, *rows = _table(run)
    return {
        "columns": header,
        "records": ["".join(map(_cell_digest, row)) for row in rows],
        "params": params_digest(run.params),
    }


def golden(arms: dict) -> dict:
    """The file's content for ``arms``: arm name -> runs in seed order."""
    return {
        "builds": builds(),
        "runs": {
            f"{name}/seed{run.base_seed}": run_digests(run)
            for name, runs in arms.items()
            for run in runs
        },
    }


def _first_difference(run, want: dict | None) -> str | None:
    if want is None:
        return "run but not recorded"
    header, *rows = _table(run)
    if header != want["columns"]:
        return f"columns {header} != recorded {want['columns']}"
    for row, digest in zip(rows, want["records"]):
        for k, (column, cell) in enumerate(zip(header, row)):
            if _cell_digest(cell) != digest[k * CELL_DIGITS : (k + 1) * CELL_DIGITS]:
                iteration = row[header.index("iteration")]
                return f"first differs at iteration {iteration}, column {column}"
    if len(rows) != len(want["records"]):
        return f"{len(rows)} records, {len(want['records'])} recorded"
    if params_digest(run.params) != want["params"]:
        return "final parameters differ"
    return None


def mismatches(recorded: dict, arms: dict) -> list[str]:
    """One line per run of ``arms`` that differs from ``recorded``: the arm,
    the seed, and the first differing iteration and column, or the final
    parameters."""
    faults, seen = [], set()
    for name, runs in arms.items():
        for run in runs:
            key = f"{name}/seed{run.base_seed}"
            seen.add(key)
            fault = _first_difference(run, recorded["runs"].get(key))
            if fault:
                faults.append(f"arm {name} seed {run.base_seed}: {fault}")
    missing = sorted(recorded["runs"].keys() - seen)
    return faults + [f"{key}: recorded but not run" for key in missing]


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from joinopt.trainer import load_run_config, run_training

    cfg = load_run_config(BUNDLE / "experiment.json")
    arms = {
        name: [run_training(arm, base_seed=arm.base_seed + r) for r in range(arm.repetitions)]
        for name, arm in arm_configs(cfg).items()
    }
    GOLDEN.write_text(json.dumps(golden(arms), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {sum(map(len, arms.values()))} runs")


if __name__ == "__main__":
    main()
