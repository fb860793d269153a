"""Property tests of the two kinds of file joinopt reads: every document it
accepts runs or fails at load, and every history ``eval --history`` accepts
is judged or refused, in one ``error:`` line and no traceback."""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from joinopt.cli import main
from joinopt.trainer import config_to_doc, load_run_config

BUNDLE = Path(__file__).resolve().parent.parent / "data" / "star6"
DOCUMENTS = ("experiment", "catalog", "train", "test")

# Another type, a range boundary, a huge integer or a non-finite number.
# The only integers are 0, 1, -1 and ones above 2**53, which the loader
# refuses, so no value sizes a run's work beyond the base run's.
VALUES = [
    None, True, "x", "", [], {},
    0, 1, -1, 0.0, -0.0, 0.5, 1.0, 5e-324, 1e-300, 1e300,
    2**53 + 1, -(2**53) - 1, 10**400, math.nan, math.inf, -math.inf,
]


def _run(argv) -> tuple[int, str]:
    """``cli.main``'s exit code and stderr.  A numpy warning would print more
    lines to stderr, so it is raised, and fails the test."""
    err = io.StringIO()
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    return rc, err.getvalue()


def _base_documents() -> dict:
    """The bundled star6 documents, run for 2 iterations of one repetition.
    The run config spells out every key, defaults included, so that each
    can be mutated."""
    docs = {name: json.loads((BUNDLE / f"{name}.json").read_text()) for name in DOCUMENTS}
    docs["experiment"] = config_to_doc(load_run_config(BUNDLE / "experiment.json"))
    docs["experiment"].update(
        catalog="catalog.json", train_workload="train.json", test_workload="test.json",
        iterations=2, repetitions=1, baseline_runs=2,
    )
    docs["experiment"]["transfer"]["n_outer"] = 2
    return docs


def _write_documents(docs: dict, directory: Path) -> Path:
    """Write the documents into ``directory``; the run config's path."""
    for name, doc in docs.items():
        (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return directory / "experiment.json"


def _paths(node, prefix=()):
    """The path of every value inside a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """The base documents, perhaps with a query moved to the other workload,
    after up to three mutations: drop a key or an entry (a query, say),
    duplicate an entry, or set a value from ``VALUES``, often one of the
    same type, so that a mutated document also gets past its load.  (A key
    written twice in a JSON object reads as its last value, which setting
    a value covers.)"""
    docs = _base_documents()
    if draw(st.booleans()):
        source, target = draw(st.sampled_from([("train", "test"), ("test", "train")]))
        queries = docs[source]["queries"]
        docs[target]["queries"].append(queries.pop(draw(st.integers(0, len(queries) - 1))))
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(DOCUMENTS))
        paths = list(_paths(docs[name]))
        if not paths:
            continue
        *parent_path, key = draw(st.sampled_from(paths))
        parent = docs[name]
        for step in parent_path:
            parent = parent[step]
        op = draw(st.sampled_from(["drop", "duplicate", "set", "set-same-type"]))
        if op == "drop":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            same_type = [v for v in VALUES if type(v) is type(parent[key])]
            pool = same_type if op == "set-same-type" and same_type else VALUES
            parent[key] = draw(st.sampled_from(pool))
    return docs


def _overflowing_cost_documents() -> dict:
    """The base documents after two mutations: a cost coefficient of 1e300,
    which overflows the costs of the plans the expert avoids, and no
    meta-initialization, so that plan search scores those plans first."""
    docs = _base_documents()
    docs["experiment"]["cost_model"]["hash_build_cost_per_row"] = 1e300
    docs["experiment"]["transfer"]["enabled"] = False
    return docs


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(docs=mutated_documents())
@example(docs=_overflowing_cost_documents())
def test_every_document_trains_or_fails_at_load_in_one_line(docs):
    with tempfile.TemporaryDirectory() as tmp:
        config = _write_documents(docs, Path(tmp))
        out = Path(tmp) / "out"
        rc, err = _run(["train", "--config", str(config), "--out", str(out)])
        assert rc == 0 and err == "" or (
            rc == 1 and err.startswith("error:") and err.count("\n") == 1 and not out.exists()
        ), err


@pytest.fixture(scope="module")
def genuine_run(tmp_path_factory):
    """The bundled star6 documents and one 3-iteration run of them."""
    tmp = tmp_path_factory.mktemp("genuine_run")
    docs = _base_documents()
    docs["experiment"].update(iterations=3, eval_interval=1)
    config = _write_documents(docs, tmp)
    assert _run(["train", "--config", str(config), "--out", str(tmp / "runs")]) == (0, "")
    return tmp


# Cells a mutation writes: non-numbers, NaN, infinities, zero, negatives, a
# denormal, an overflowing literal, an integer Python refuses to parse, and
# text that breaks the CSV quoting.
CELLS = [
    "", "x", "nan", "inf", "-inf", "0", "-0.0", "-5", "1.5", "5e-324", "1e309",
    "9" * 5000, '"', "a,b", "\n", " 1",
]


@st.composite
def mutated_history(draw, text: str) -> bytes:
    """A genuine run.csv after up to three mutations of its cells, rows and
    columns, then perhaps cut short or given a byte that is not UTF-8.  A
    cell is set from ``CELLS`` or to another record's value in its column."""
    rows = list(csv.reader(io.StringIO(text)))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i, k = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        j = draw(st.integers(0, max(len(row) for row in rows)))
        op = draw(st.sampled_from(["cell", "cell", "drop-row", "repeat-row", "swap-rows",
                                   "drop-column"]))
        if op == "cell" and j < len(rows[i]):
            rows[i][j] = draw(st.sampled_from(CELLS + [row[j] for row in rows if j < len(row)]))
        elif op == "drop-row":
            del rows[i]
        elif op == "repeat-row":
            rows.insert(i, list(rows[i]))
        elif op == "swap-rows":
            rows[i], rows[k] = rows[k], rows[i]
        elif op == "drop-column":
            rows = [row[:j] + row[j + 1:] for row in rows]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    raw = buffer.getvalue().encode("utf-8")
    at = draw(st.integers(0, len(raw)))
    return draw(st.sampled_from([raw, raw[:at], raw[:at] + b"\xff" + raw[at:]]))


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_history_is_judged_or_refused_in_one_line_naming_it(genuine_run, data):
    runs = genuine_run / "runs"
    history_bytes = data.draw(mutated_history((runs / "rep0" / "run.csv").read_text()))
    with tempfile.TemporaryDirectory() as tmp:
        history = Path(tmp) / "history.csv"
        history.write_bytes(history_bytes)
        rc, err = _run([
            "eval", "--config", str(genuine_run / "experiment.json"),
            "--model", str(runs / "rep0" / "model.npz"), "--history", str(history),
        ])
    assert rc == 0 and err == "" or (
        rc == 1 and err.startswith(f"error: {history}") and err.count("\n") == 1
    ), err
