"""The before/after driver that ``tools/bench_*.py`` share, in
``tools/bench_pairs.py``, run on two tiny checkouts with a trivial worker,
and the workers of the in-process tools checked against ``src``."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

# Run in each checkout: appends the checkout's side to the log and prints
# the values its module gives for this round (one line per earlier run, two
# runs per round).
WORKER = """
import json, sys
import tiny
log = json.loads(sys.argv[1])
with open(log) as f:
    index = len(f.read().split()) // 2
with open(log, "a") as f:
    f.write(tiny.SIDE + "\\n")
print(json.dumps({"ms": tiny.MS[index], "out": tiny.OUT}))
"""
# Round medians: before 3, 3, 3 and after 1, 3, 4, so one round each side
# and one tie.
MS = {
    "before": [[2.0, 4.0], [3.0, 3.0], [5.0, 1.0]],
    "after": [[1.0, 1.0], [3.0, 3.0], [4.0, 4.0]],
}


def fields(rounds):
    return {
        "ms": bench_pairs.summarize(rounds, lambda result: result["ms"]),
        "outputs_equal": bench_pairs.same(rounds, lambda result: result["out"]),
    }


def compare(tmp_path, label, after_out):
    """Run the driver on checkouts ``parent`` and ``change``, whose modules
    give ``MS`` and the outputs 1 and ``after_out``, in ``tmp_path``; returns
    the sides in the order they ran."""
    for name, side, out in (("parent", "before", 1), ("change", "after", after_out)):
        src = tmp_path / name / "src"
        src.mkdir(parents=True, exist_ok=True)
        (src / "tiny.py").write_text(f"SIDE = {side!r}\nMS = {MS[side]!r}\nOUT = {out!r}\n")
    log = tmp_path / f"{label}.log"
    log.write_text("")
    argv = ["--before", str(tmp_path / "parent"), "--after", str(tmp_path / "change"),
            "--label", label]
    bench_pairs.compare_layer("Doc.", WORKER, str(log), 3, fields, "outputs_equal", argv)
    return log.read_text().split()


def test_driver_alternates_summarizes_and_names_the_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert compare(tmp_path, "tiny", 1) == ["before", "after", "after", "before", "before", "after"]
    doc = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert doc["label"] == "tiny"
    assert doc["checkouts"] == {"before": "parent", "after": "change"}
    assert doc["rounds"] == 3
    assert doc["outputs_equal"] is True
    assert doc["ms"] == {
        "before": {"median": 3.0, "q1": 2.25, "q3": 3.75, "n": 6},
        "after": {"median": 3.0, "q1": 1.5, "q3": 3.75, "n": 6},
        "speedup": 1.0,
        "round_speedups": [3.0, 1.0, 0.75],
        "after_wins": 1,
        "before_wins": 1,
        "pairs": 3,
    }


def test_driver_writes_the_record_then_exits_when_outputs_differ(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        compare(tmp_path, "differ", 2)
    assert "BENCH_differ.json" in exit_.value.code
    assert json.loads((tmp_path / "BENCH_differ.json").read_text())["outputs_equal"] is False


def test_arguments_are_before_after_and_label_only(tmp_path):
    sides = ["--before", str(tmp_path / "a"), "--after", str(tmp_path / "b")]
    assert bench_pairs.parse_args("Doc.", sides + ["--label", "x"]) == (
        {"before": (tmp_path / "a").resolve(), "after": (tmp_path / "b").resolve()}, "x"
    )
    for argv in (sides, sides + ["--label", "x", "--rounds", "2"]):
        with pytest.raises(SystemExit) as exit_:
            bench_pairs.parse_args("Doc.", argv)
        assert exit_.value.code == 2


def test_workers_report_each_round_raw_and_at_the_reference_speed(tmp_path, monkeypatch):
    """A worker that starts with ``SPEED_SAMPLER`` reports its timed rounds
    raw and scaled by the ``perfbench/speed.py`` of its checkout, even when
    it ends before the sampler's first interval, and ``raw_and_scaled``
    summarizes both."""
    monkeypatch.chdir(tmp_path)
    speed = Path(bench_pairs.__file__).resolve().parent.parent / "perfbench" / "speed.py"
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "speed.py").write_text(speed.read_text())
    worker = bench_pairs.SPEED_SAMPLER + """
rounds = []
for calls in (1, 2):
    start = time.perf_counter()
    time.sleep(0.005 * calls)
    rounds.append((start, time.perf_counter(), calls))
finish({"ms": timed(rounds), "us": timed(rounds, 1e6)})
"""

    def fields(rounds):
        for result in (r[side] for r in rounds for side in bench_pairs.SIDES):
            assert min(result["ms"]["raw"]) >= 5.0
            for kind in ("raw", "scaled"):
                assert result["us"][kind] == pytest.approx([1e3 * ms for ms in result["ms"][kind]])
        return {"ms": bench_pairs.raw_and_scaled(rounds, lambda result: result["ms"]),
                "equal": True}

    argv = ["--before", str(tmp_path / "parent"), "--after", str(tmp_path / "change"),
            "--label", "speed"]
    bench_pairs.compare_layer("Doc.", worker, None, 2, fields, "equal", argv)
    doc = json.loads((tmp_path / "BENCH_speed.json").read_text())
    for entry in (doc["ms"], doc["ms"]["scaled"]):
        assert entry["before"]["n"] == entry["after"]["n"] == 4
        assert entry["before"]["median"] > 0 and entry["pairs"] == 2


WORKER_TOOLS = [
    path.stem for path in sorted((ROOT / "tools").glob("bench_*.py"))
    if "\nWORKER = " in path.read_text(encoding="utf-8")
]


def defines(module: str, name: str) -> bool:
    """Whether ``from module import name`` finds an attribute or a submodule."""
    return hasattr(importlib.import_module(module), name) or (
        importlib.util.find_spec(f"{module}.{name}") is not None
    )


@pytest.mark.parametrize("tool", WORKER_TOOLS)
def test_worker_compiles_and_uses_only_names_src_defines(tool):
    """A tool's ``WORKER`` runs only in a checkout, so a stale name would
    show only when the tool is next run: it compiles, and every name it
    imports from ``joinopt`` and every ``trainer.<name>`` it reads is
    defined by the ``joinopt`` under ``src``."""
    import joinopt
    from joinopt import trainer

    assert Path(joinopt.__file__).resolve().parent == ROOT / "src" / "joinopt"
    worker = importlib.import_module(tool).WORKER
    compile(worker, f"{tool}.WORKER", "exec")
    imported, read = [], []
    for node in ast.walk(ast.parse(worker)):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "joinopt":
            imported += [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id == "trainer"):
            read.append(node.attr)
    assert imported
    assert [f"{m}.{n}" for m, n in imported if not defines(m, n)] == []
    assert [name for name in read if not hasattr(trainer, name)] == []
