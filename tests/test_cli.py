import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from joinopt import cli, simulator
from joinopt.catalog import load_catalog
from joinopt.cli import main
from joinopt.features import feature_dim
from joinopt.model import init_params, load_params, save_params
from joinopt.trainer import config_to_doc, load_run_config, run_training

from conftest import write_json


@pytest.fixture
def project(tmp_path):
    """Generated workload plus a small run config, via the CLI itself."""
    data = tmp_path / "data"
    rc = main(
        [
            "gen-workload",
            "--out", str(data),
            "--tables", "5",
            "--shape", "star",
            "--train-queries", "6",
            "--test-queries", "2",
            "--seed", "11",
            "--max-relations", "4",
        ]
    )
    assert rc == 0
    config = write_json(
        tmp_path / "config.json",
        {
            "catalog": "data/catalog.json",
            "train_workload": "data/train.json",
            "test_workload": "data/test.json",
            "iterations": 3,
            "eval_interval": 1,
            "base_seed": 5,
            "repetitions": 1,
            "transfer": {"enabled": False, "k_tasks": 2, "n_outer": 2, "rollouts_per_query": 1},
            "search": {"beam_width": 3},
        },
    )
    return tmp_path, config


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_workload_idempotent(tmp_path):
    args = lambda out: [
        "gen-workload", "--out", str(out), "--tables", "6", "--shape", "chain",
        "--train-queries", "5", "--test-queries", "2", "--seed", "3",
    ]
    assert main(args(tmp_path / "a")) == 0
    assert main(args(tmp_path / "b")) == 0
    for name in ("catalog.json", "train.json", "test.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_workload_rejects_bad_shape(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-workload", "--out", str(tmp_path), "--shape", "ring"])
    assert exc.value.code == 2


def test_gen_workload_invalid_tables(tmp_path, capsys):
    rc = main(["gen-workload", "--out", str(tmp_path), "--tables", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_writes_artifacts(project):
    tmp_path, config = project
    out = tmp_path / "runs"
    rc = main(["train", "--config", str(config), "--out", str(out)])
    assert rc == 0
    run_csv = read_csv(out / "rep0" / "run.csv")
    assert run_csv[0][0] == "iteration"
    assert len(run_csv) == 1 + 4  # header + iterations 0..3 at interval 1
    assert (out / "rep0" / "model.npz").exists()
    assert (out / "summary.csv").exists()
    assert (out / "verdicts.csv").exists()
    assert (out / "config.json").exists()
    summary = read_csv(out / "summary.csv")
    assert summary[-1][0] == "median"


def test_train_reproducible_excluding_wall_clock(project):
    tmp_path, config = project
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        rows = read_csv(out / "rep0" / "run.csv")
        wall = rows[0].index("wall_clock_ms")
        outs.append([tuple(v for i, v in enumerate(row) if i != wall) for row in rows])
    assert outs[0] == outs[1]


def test_train_seed_changes_output(project):
    tmp_path, config = project
    rows = []
    for seed, name in (("5", "s5"), ("6", "s6")):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--seed", seed, "--out", str(out)]) == 0
        rows.append(read_csv(out / "rep0" / "run.csv")[-1][1:3])
    assert rows[0] != rows[1]


def test_train_ablation_flags(project):
    tmp_path, config = project
    out = tmp_path / "ablate"
    rc = main(
        [
            "train", "--config", str(config), "--out", str(out),
            "--no-retention", "--no-transfer", "--weighting", "td-high",
        ]
    )
    assert rc == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["retention"]["enabled"] is False
    assert resolved["transfer"]["enabled"] is False
    assert resolved["retention"]["weighting"] == "td_high"


def test_partition_report(project, capsys):
    tmp_path, config = project
    out = tmp_path / "report"
    rc = main(["partition-report", "--config", str(config), "--k-tasks", "2", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    rows = read_csv(out / "partition_report.csv")
    header, body = rows[0], rows[1:]
    assert header == ["policy", "task", "query_ids", "dbi", "selected"]
    policies = {row[0] for row in body}
    assert policies == {"halstead", "operator_count", "estimated_cost", "estimated_rows"}
    selected = {row[0] for row in body if row[4] == "yes"}
    assert len(selected) == 1
    by_policy = {row[0]: float(row[3]) for row in body}
    assert by_policy[selected.pop()] == min(by_policy.values())


def test_meta_train_writes_checkpoint(project):
    tmp_path, config = project
    out = tmp_path / "meta"
    rc = main(["meta-train", "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert (out / "meta_params.npz").exists()


@pytest.mark.parametrize("policy", ["halstead", "estimated_rows"])
def test_meta_train_forced_policy_prints_its_dbi(project, capsys, policy):
    """A forced partition is scored as partition-report scores it."""
    tmp_path, config = project
    flag = policy.replace("_", "-")
    argv = ["--config", str(config), "--k-tasks", "2"]
    assert main(["meta-train", *argv, "--out", str(tmp_path / "meta"), "--policy", flag]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    assert printed.startswith(f"policy={policy} dbi=")
    assert main(["partition-report", *argv, "--out", str(tmp_path / "report")]) == 0
    reported = {row[0]: row[3] for row in read_csv(tmp_path / "report" / "partition_report.csv")}
    assert float(printed.split("dbi=")[1]) == float(reported[policy])


STAR6 = Path(__file__).resolve().parents[1] / "data" / "star6"


def _star6_doc():
    """The bundled star6 run config, its document paths made absolute."""
    doc = json.loads((STAR6 / "experiment.json").read_text())
    for key in ("catalog", "train_workload", "test_workload"):
        doc[key] = str(STAR6 / doc[key])
    return doc


def _joinopt(*argv):
    """``joinopt`` run in a new process on this checkout's ``src``, so that
    stderr holds all a user sees, numpy's warnings included."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "joinopt.cli", *argv], capture_output=True, text=True, env=env
    )


def test_divergence_names_iteration_and_phase(tmp_path):
    """A learning rate that makes SGD diverge fails the run with one stderr
    line naming the iteration and the phase, and no numpy warning."""
    doc = _star6_doc()
    doc.update(iterations=2, repetitions=1)
    doc["model"] = {**doc.get("model", {}), "learning_rate": 1e6}
    config = write_json(tmp_path / "diverge.json", doc)
    proc = _joinopt("train", "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: iteration 1: sgd: layer 0: non-finite parameter"
    ]


COST_COEFFICIENTS = (
    "cpu_cost_per_row",
    "hash_build_cost_per_row",
    "nlj_cost_per_row_pair",
    "merge_sort_cost_per_row_log_row",
)


@pytest.mark.parametrize(
    "transfer, message",
    [
        (True, "error: iteration 0: maml: layer 0: non-finite parameter"),
        (False, "error: iteration 1: sgd: layer 0: non-finite parameter"),
    ],
    ids=["transfer-on", "transfer-off"],
)
@pytest.mark.parametrize("coefficient", COST_COEFFICIENTS)
def test_an_overflowing_cost_coefficient_fails_naming_iteration_and_phase(
    tmp_path, coefficient, transfer, message
):
    """A cost coefficient of 1e300 passes load and the expert baselines, as
    the expert's plans stay finite, but the costs of the plans it avoids
    overflow.  The run fails at the first phase that diverges, MAML on the
    rollouts' infinite labels or the first online SGD phase, with one line
    naming the iteration and the phase; numpy warns of nothing, and no
    output directory is made."""
    doc = _star6_doc()
    doc.update(iterations=2, repetitions=1, baseline_runs=2)
    doc["cost_model"] = {coefficient: 1e300}
    doc["transfer"] = {"enabled": transfer}
    config = write_json(tmp_path / "overflow.json", doc)
    out = tmp_path / "out"
    proc = _joinopt("train", "--config", str(config), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [message]
    assert not out.exists()


def test_eval_under_an_overflowing_cost_coefficient_is_silent(tmp_path):
    """A genuine checkpoint evaluated under a cost model whose
    ``cpu_cost_per_row`` is 1e300 plans some queries into overflowing
    costs: it reports an infinite WRL, exits 0 and prints nothing to
    stderr, where numpy's warning from the forward pass used to appear."""
    doc = _star6_doc()
    doc.update(iterations=2, repetitions=1, baseline_runs=2)
    assert main(
        ["train", "--config", str(write_json(tmp_path / "ok.json", doc)),
         "--out", str(tmp_path / "run")]
    ) == 0
    doc["cost_model"] = {"cpu_cost_per_row": 1e300}
    config = write_json(tmp_path / "overflow.json", doc)
    model = tmp_path / "run" / "rep0" / "model.npz"
    proc = _joinopt("eval", "--config", str(config), "--model", str(model))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "train WRL=inf"


def test_eval_runs_against_checkpoint(project, capsys):
    tmp_path, config = project
    meta = tmp_path / "meta"
    assert main(["meta-train", "--config", str(config), "--out", str(meta)]) == 0
    out = tmp_path / "eval"
    rc = main(
        [
            "eval", "--config", str(config),
            "--model", str(meta / "meta_params.npz"), "--out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "WRL" in printed
    rows = read_csv(out / "eval.csv")
    assert rows[0][0] == "split"
    assert len(rows) == 1 + 8  # 6 train + 2 test


def test_eval_baselines_match_training(project):
    """eval seeds its expert baselines as train does, so its expert latencies
    (and hence its --history verdicts) agree with the run's."""
    tmp_path, config = project
    runs = tmp_path / "runs_for_eval"
    assert main(["train", "--config", str(config), "--out", str(runs)]) == 0
    out = tmp_path / "eval_baselines"
    rc = main(
        [
            "eval", "--config", str(config),
            "--model", str(runs / "rep0" / "model.npz"), "--out", str(out),
        ]
    )
    assert rc == 0
    baselines = run_training(load_run_config(config)).baselines
    rows = read_csv(out / "eval.csv")
    header = rows[0]
    qid_col = header.index("query_id")
    mean_col = header.index("expert_mean_latency_ms")
    assert len(rows) - 1 == len(baselines)
    for row in rows[1:]:
        assert float(row[mean_col]) == baselines[row[qid_col]].mean_latency_ms


def test_eval_missing_checkpoint_errors(project, capsys):
    tmp_path, config = project
    rc = main(["eval", "--config", str(config), "--model", str(tmp_path / "none.npz")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_eval_malformed_checkpoint_errors(project, capsys):
    tmp_path, config = project
    model = tmp_path / "bad.npz"
    model.write_bytes(b"PK\x03\x04" + bytes(100))  # a zip header, then no archive
    rc = main(["eval", "--config", str(config), "--model", str(model)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ")
    assert "\n" not in err.strip()


def test_eval_refuses_a_checkpoint_built_for_another_catalog(project, capsys, monkeypatch):
    """A checkpoint whose input layer does not match the catalog's feature
    width is refused in one line naming both files, before any expert DP."""
    tmp_path, config = project
    catalog = (tmp_path / "data" / "catalog.json").resolve()
    width = feature_dim(load_catalog(catalog))
    model = tmp_path / "other.npz"
    save_params(init_params((width + 2, 4, 1), 0), model)
    calls = []
    monkeypatch.setattr(simulator, "expert_plan", lambda *args: calls.append(args))
    rc = main(["eval", "--config", str(config), "--model", str(model)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {model}: the network takes {width + 2} input features, "
        f"but catalog {catalog} gives {width}\n"
    )
    assert calls == []


def test_eval_refuses_a_non_finite_checkpoint_naming_the_file(project, capsys):
    """A checkpoint holding a NaN weight fails ``eval`` with one stderr line
    naming the file and the layer."""
    tmp_path, config = project
    model = _small_checkpoint(tmp_path)
    params = load_params(model)
    params.weights[1][0, 0] = math.nan
    save_params(params, model)
    rc = main(["eval", "--config", str(config), "--model", str(model)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {model}: layer 1: non-finite parameter\n"


def test_replay_report(project):
    tmp_path, config = project
    out = tmp_path / "replay"
    rc = main(["replay-report", "--config", str(config), "--iterations", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "buffer.json").exists()
    rows = read_csv(out / "replay_report.csv")
    assert rows[0] == [
        "index", "query_id", "stored_at", "norm_td", "recency", "probability", "sampled_count",
    ]
    probabilities = [float(r[5]) for r in rows[1:]]
    assert abs(sum(probabilities) - 1.0) < 1e-9
    buffer_doc = json.loads((out / "buffer.json").read_text())
    assert len(buffer_doc["experiences"]) == len(rows) - 1
    # The report reads the buffer the run trained on, not a rebuilt one.
    cfg = dataclasses.replace(load_run_config(config), iterations=2)
    result = run_training(cfg)
    assert len(rows) - 1 == result.records[-1].buffer_size == len(result.buffer)
    assert [r[1] for r in rows[1:]] == list(result.buffer.query_id[result.buffer.order()])
    assert {int(r[2]) for r in rows[1:]} == {1, 2}


def test_replay_report_reward_is_the_td_reward(project):
    """buffer.json reports the reward td_error adds: -log1p(latency) at a
    plan root, 0.0 at every other experience."""
    tmp_path, config = project
    out = tmp_path / "replay"
    rc = main(["replay-report", "--config", str(config), "--iterations", "2", "--out", str(out)])
    assert rc == 0
    rows = json.loads((out / "buffer.json").read_text())["experiences"]
    roots = [row for row in rows if row["terminal"]]
    inner = [row for row in rows if not row["terminal"]]
    assert roots and inner
    for row in roots:
        assert row["transition_reward"] == -math.log1p(row["latency_ms"])
    assert {row["transition_reward"] for row in inner} == {0.0}


def test_unknown_flag_rejected(project, capsys):
    tmp_path, config = project
    with pytest.raises(SystemExit):
        main(["train", "--config", str(config), "--out", str(tmp_path / "x"), "--frobnicate"])
    # Partitioning draws no random numbers, so partition-report takes no seed.
    with pytest.raises(SystemExit) as exc:
        main(["partition-report", "--config", str(config), "--seed", "1"])
    assert exc.value.code == 2


def test_bad_config_single_line_error(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", {"catalog": "missing.json"})
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert "\n" not in err


def test_malformed_catalog_single_line_error(project, capsys):
    tmp_path, config = project
    catalog = tmp_path / "data" / "catalog.json"
    write_json(catalog, {**json.loads(catalog.read_text()), "tables": 5})
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {catalog.resolve()}: 'tables' must be a list, got 5\n"
    assert not (tmp_path / "o").exists()


def test_train_refuses_a_test_query_with_a_train_querys_id(project, capsys):
    """Baselines and expert latencies are keyed by query id, so two queries
    sharing one would share one baseline and be judged wrongly."""
    tmp_path, config = project
    data = tmp_path / "data"
    test = json.loads((data / "test.json").read_text())
    test["queries"][1]["id"] = "q02"
    write_json(data / "test.json", test)
    _assert_fails_before_work(
        tmp_path, capsys, ["--config", str(config)],
        f"error: {(data / 'test.json').resolve()}: queries[1]: id 'q02' is also a train "
        f"query's id in {(data / 'train.json').resolve()}\n",
    )


@pytest.mark.parametrize("split", ["train", "test"])
def test_train_refuses_an_empty_workload(project, capsys, split):
    """With MAML on, an empty train workload used to end in a traceback, and
    an empty test workload failed only after set-up."""
    tmp_path, config = project
    doc = json.loads(config.read_text())
    doc["transfer"]["enabled"] = True
    write_json(config, doc)
    workload = tmp_path / "data" / f"{split}.json"
    write_json(workload, {"queries": []})
    _assert_fails_before_work(
        tmp_path, capsys, ["--config", str(config)],
        f"error: {workload.resolve()}: 'queries' must not be empty\n",
    )


def test_train_refuses_an_integer_float64_cannot_hold(project, capsys):
    """A JSON integer above 2**53 in magnitude used to overflow in float64
    arithmetic after loading; 2**53 itself loads."""
    tmp_path, config = project
    catalog = tmp_path / "data" / "catalog.json"
    doc = json.loads(catalog.read_text())
    doc["tables"][0]["row_count"] = 2**53
    write_json(catalog, doc)
    load_catalog(catalog)
    doc["tables"][0]["row_count"] = 10**400
    write_json(catalog, doc)
    _assert_fails_before_work(
        tmp_path, capsys, ["--config", str(config)],
        f"error: {catalog.resolve()}: tables[0]: 'row_count' must be an integer, "
        "got 10000000...0000 (401 digits)\n",
    )


def test_train_reports_a_failed_allocation_in_one_line(project, capsys):
    """``hidden_sizes`` has no upper bound, so a layer of 2**50 units loads;
    numpy refuses its more than 100 PiB at once, allocating nothing, and the refusal
    is one error line, not a traceback."""
    tmp_path, config = project
    doc = json.loads(config.read_text())
    bad = write_json(tmp_path / "huge.json", {**doc, "model": {"hidden_sizes": [2**50]}})
    _assert_fails_before_work(tmp_path, capsys, ["--config", str(bad)], "Unable to allocate")


def _small_checkpoint(tmp_path):
    """A checkpoint of one 4-unit hidden layer for the project's catalog."""
    model = tmp_path / "m.npz"
    width = feature_dim(load_catalog(tmp_path / "data" / "catalog.json"))
    save_params(init_params((width, 4, 1), 0), model)
    return model


def test_eval_and_partition_report_build_no_fresh_model(project, capsys):
    """Only the commands that train build the config's initial model, so a
    ``hidden_sizes`` too large to allocate stops neither ``eval`` of a
    checkpoint nor ``partition-report``."""
    tmp_path, config = project
    doc = json.loads(config.read_text())
    huge = write_json(tmp_path / "huge.json", {**doc, "model": {"hidden_sizes": [2**50]}})
    model = _small_checkpoint(tmp_path)
    assert main(["eval", "--config", str(huge), "--model", str(model)]) == 0
    assert main(["partition-report", "--config", str(huge)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "cost_model",
    [{"scan_cost_per_row": 0, "nlj_cost_per_row_pair": 0}, {"latency_per_cost_unit": 1e300}],
    ids=["zero-cost-plans", "overflowing-latency"],
)
def test_expert_latencies_that_are_not_positive_and_finite_fail_at_setup(
    project, capsys, cost_model, command
):
    """A cost model under which every all-NLJ plan costs 0, or whose latency
    unit overflows the expert's latency statistics, fails when the expert
    baselines are computed, before meta-initialization, with one line that
    names the query; numpy warns of nothing, and nothing is written."""
    tmp_path, config = project
    doc = json.loads(config.read_text())
    doc["transfer"]["enabled"] = True
    bad = write_json(tmp_path / "bad.json", {**doc, "cost_model": cost_model})
    model = _small_checkpoint(tmp_path)
    out = tmp_path / "never"
    argv = [command, "--config", str(bad), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv + (["--model", str(model)] if command == "eval" else []))
    assert rc == 1
    err = capsys.readouterr().err
    found = re.fullmatch(
        r"error: query '(\w+)': expert latencies must be positive and finite, "
        r"got mean \S+ ms and std \S+ ms\n",
        err,
    )
    queries = [json.loads((tmp_path / "data" / f"{split}.json").read_text())["queries"]
               for split in ("train", "test")]
    assert found and found.group(1) in {q["id"] for split in queries for q in split}
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_latency_unit_so_small_that_latencies_are_denormal_fails_at_setup(
    project, capsys, command
):
    """A ``latency_per_cost_unit`` of 5e-324 used to train and exit 0 with a
    meaningless WRL: every latency was a denormal float."""
    tmp_path, config = project
    doc = json.loads(config.read_text())
    bad = write_json(
        tmp_path / "bad.json", {**doc, "cost_model": {"latency_per_cost_unit": 5e-324}}
    )
    out = tmp_path / "never"
    argv = [command, "--config", str(bad), "--out", str(out)]
    rc = main(argv + (["--model", str(_small_checkpoint(tmp_path))] if command == "eval" else []))
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: query 'q0[1-8]': the expert's noiseless latency must be at least "
        r"2\.2250738585072014e-308 ms, got \S+e-3\d\d ms\n",
        err,
    ), err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"iterations": 1.5}, "iterations"),
        ({"window_fraction": 0}, "window_fraction"),
        ({"model": {"learning_rate": "0.1"}}, "learning_rate"),
        (
            {"cost_model": {"cpu_cost_per_row": math.nan}},
            "bad.json: cost_model: 'cpu_cost_per_row' must be a finite number, got NaN",
        ),
        (
            {"model": {"learning_rate": math.inf}},
            "bad.json: model: 'learning_rate' must be a finite number, got Infinity",
        ),
    ],
)
def test_train_bad_config_value_fails_before_work(project, capsys, overrides, key):
    tmp_path, config = project
    bad = write_json(tmp_path / "bad.json", {**json.loads(config.read_text()), **overrides})
    _assert_fails_before_work(tmp_path, capsys, ["--config", str(bad)], key)


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--iterations", "0"], "--iterations: iterations"),
        (["--reps", "0"], "--reps: repetitions"),
        (["--k-tasks", "1"], "--k-tasks: k_tasks"),
    ],
)
def test_train_bad_override_fails_before_work(project, capsys, flags, key):
    tmp_path, config = project
    _assert_fails_before_work(tmp_path, capsys, ["--config", str(config), *flags], key)


def _assert_fails_before_work(tmp_path, capsys, argv, key):
    out = tmp_path / "never"
    rc = main(["train", *argv, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


def _flat(doc, prefix=""):
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _changed(before, after):
    before, after = _flat(before), _flat(after)
    assert before.keys() == after.keys()
    return {key: after[key] for key in after if after[key] != before[key]}


@pytest.mark.parametrize(
    "flags, changed",
    [
        (["--seed", "9"], {"base_seed": 9}),
        (["--reps", "2"], {"repetitions": 2}),
        (["--iterations", "2"], {"iterations": 2}),
        (["--k-tasks", "3"], {"transfer.k_tasks": 3}),
        (["--no-transfer"], {"transfer.enabled": False}),
        (["--no-retention"], {"retention.enabled": False}),
        (["--weighting", "td-low"], {"retention.weighting": "td_low"}),
        (["--policy", "estimated-rows"], {"transfer.forced_policy": "estimated_rows"}),
    ],
)
def test_train_override_changes_only_its_key(project, flags, changed):
    """Each override flag of train changes exactly its own key of the
    config.json that the run writes."""
    tmp_path, config = project
    doc = json.loads(config.read_text())
    doc["transfer"] = {**doc["transfer"], "enabled": True, "n_outer": 1, "n_inner": 1}
    config = write_json(tmp_path / "with_transfer.json", doc)
    written = []
    for name, extra in (("plain", []), ("flagged", flags)):
        out = tmp_path / name
        argv = ["train", "--config", str(config), "--out", str(out)]
        for flag, value in (("--reps", "1"), ("--iterations", "1")):
            if flag not in extra:
                argv += [flag, value]
        assert main(argv + extra) == 0
        written.append(json.loads((out / "config.json").read_text()))
    assert _changed(*written) == changed


@pytest.mark.parametrize(
    "command, flags, changed",
    [
        (
            "meta-train",
            ["--seed", "9", "--k-tasks", "3", "--policy", "halstead"],
            {"base_seed": 9, "transfer.k_tasks": 3, "transfer.forced_policy": "halstead"},
        ),
        ("eval", ["--seed", "9"], {"base_seed": 9}),
        ("replay-report", ["--seed", "9", "--iterations", "2"], {"base_seed": 9, "iterations": 2}),
        ("partition-report", ["--k-tasks", "3"], {"transfer.k_tasks": 3}),
    ],
)
def test_command_overrides_reach_the_command(project, monkeypatch, command, flags, changed):
    tmp_path, config = project
    seen = []
    monkeypatch.setattr(
        cli, "_cmd_" + command.replace("-", "_"), lambda args, cfg: seen.append(cfg) or 0
    )
    required = {"meta-train": ["--out", "x"], "eval": ["--model", "m.npz"],
                "replay-report": ["--out", "x"]}
    assert main([command, "--config", str(config), *required.get(command, []), *flags]) == 0
    assert _changed(config_to_doc(load_run_config(config)), config_to_doc(seen[0])) == changed


# Every option of every subcommand: (choices, type, action, default,
# required, help).  Declaring the overrides once must not change them.
COMMAND_OPTIONS = {
    "gen-workload": {
        "--out": (None, None, "_StoreAction", None, True, "output directory"),
        "--tables": (None, "int", "_StoreAction", 6, False, "number of tables (>= 2)"),
        "--shape": (["chain", "snowflake", "star"], None, "_StoreAction", "star", False,
                    "schema shape"),
        "--train-queries": (None, "int", "_StoreAction", 10, False, "train query count"),
        "--test-queries": (None, "int", "_StoreAction", 3, False, "test query count"),
        "--seed": (None, "int", "_StoreAction", 1, False, "generator seed"),
        "--min-relations": (None, "int", "_StoreAction", 2, False, "smallest query size"),
        "--max-relations": (None, "int", "_StoreAction", None, False, "largest query size"),
    },
    "partition-report": {
        "--config": (None, None, "_StoreAction", None, True, "run-configuration file"),
        "--k-tasks": (None, "int", "_StoreAction", None, False, "override task count"),
        "--out": (None, None, "_StoreAction", None, False, "directory for partition_report.csv"),
    },
    "meta-train": {
        "--config": (None, None, "_StoreAction", None, True, "run-configuration file"),
        "--seed": (None, "int", "_StoreAction", None, False, "override base seed"),
        "--k-tasks": (None, "int", "_StoreAction", None, False, "override task count"),
        "--policy": (
            ["estimated-cost", "estimated-rows", "halstead", "operator-count"], None,
            "_StoreAction", None, False, "force a partitioning policy instead of DBI selection",
        ),
        "--out": (None, None, "_StoreAction", None, True, "output directory"),
    },
    "train": {
        "--config": (None, None, "_StoreAction", None, True, "run-configuration file"),
        "--seed": (None, "int", "_StoreAction", None, False, "override base seed"),
        "--reps": (None, "int", "_StoreAction", None, False, "override repetitions"),
        "--iterations": (None, "int", "_StoreAction", None, False,
                         "override training iterations"),
        "--out": (None, None, "_StoreAction", None, True, "output directory"),
        "--no-transfer": (None, None, "_StoreTrueAction", False, False,
                          "disable meta initialization"),
        "--no-retention": (None, None, "_StoreTrueAction", False, False,
                           "train only on each iteration's fresh experiences"),
        "--weighting": (["hybrid", "recency", "td-high", "td-low"], None, "_StoreAction",
                        None, False, "replay weighting policy"),
        "--policy": (
            ["estimated-cost", "estimated-rows", "halstead", "operator-count"], None,
            "_StoreAction", None, False, "force a partitioning policy instead of DBI selection",
        ),
        "--k-tasks": (None, "int", "_StoreAction", None, False, "override task count"),
    },
    "eval": {
        "--config": (None, None, "_StoreAction", None, True, "run-configuration file"),
        "--model": (None, None, "_StoreAction", None, True, "model checkpoint (.npz)"),
        "--seed": (None, "int", "_StoreAction", None, False, "override base seed"),
        "--history": (None, None, "_StoreAction", None, False,
                      "a run.csv file; adds per-query verdicts and the convergence iteration"),
        "--out": (None, None, "_StoreAction", None, False, "directory for eval.csv"),
    },
    "replay-report": {
        "--config": (None, None, "_StoreAction", None, True, "run-configuration file"),
        "--seed": (None, "int", "_StoreAction", None, False, "override base seed"),
        "--iterations": (None, "int", "_StoreAction", None, False,
                         "override training iterations"),
        "--out": (None, None, "_StoreAction", None, True, "output directory"),
    },
}


def test_subcommand_options_are_stable():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    got = {
        name: {
            a.option_strings[-1]: (
                sorted(a.choices) if a.choices else None,
                getattr(a.type, "__name__", None),
                type(a).__name__,
                a.default,
                a.required,
                a.help,
            )
            for a in command._actions
            if a.option_strings and a.dest != "help"
        }
        for name, command in commands.items()
    }
    assert got == COMMAND_OPTIONS


def test_eval_with_history_reports_verdicts(project):
    tmp_path, config = project
    runs = tmp_path / "hist_runs"
    assert main(["train", "--config", str(config), "--out", str(runs)]) == 0
    out = tmp_path / "hist_eval"
    rc = main(
        [
            "eval", "--config", str(config),
            "--model", str(runs / "rep0" / "model.npz"),
            "--history", str(runs / "rep0" / "run.csv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out / "eval.csv")
    header = rows[0]
    assert "verdict" in header and "convergence_iteration" in header
    verdicts = {row[header.index("verdict")] for row in rows[1:]}
    assert verdicts <= {"superior", "plateau", "rebound"}
    conv = {row[header.index("convergence_iteration")] for row in rows[1:]}
    assert len(conv) == 1  # same value on every row


def test_eval_history_prints_the_runs_verdicts(project, capsys):
    """eval --history judges run.csv with the code train used, so it prints
    rep 0's verdicts from verdicts.csv and its convergence from summary.csv."""
    tmp_path, config = project
    runs = tmp_path / "verdict_runs"
    assert main(["train", "--config", str(config), "--out", str(runs)]) == 0
    capsys.readouterr()
    rc = main(
        [
            "eval", "--config", str(config),
            "--model", str(runs / "rep0" / "model.npz"),
            "--history", str(runs / "rep0" / "run.csv"),
        ]
    )
    assert rc == 0
    printed, convergence = {}, None
    for line in capsys.readouterr().out.splitlines():
        fields = line.split()
        if fields[-1].startswith("verdict="):
            printed[(fields[0], fields[1])] = fields[-1].removeprefix("verdict=")
        if line.startswith("convergence iteration="):
            convergence = line.removeprefix("convergence iteration=")
    expected = {
        (row[1], row[2]): row[3]
        for row in read_csv(runs / "verdicts.csv")[1:]
        if row[0] == "0"
    }
    assert printed == expected and len(expected) == 8
    assert convergence == read_csv(runs / "summary.csv")[1][4]


def test_eval_history_needs_the_runs_seed(project, capsys):
    """A history judged against another seed's baselines is refused; with
    the run's seed, eval prints that repetition's verdicts."""
    tmp_path, config = project
    runs = tmp_path / "two_reps"
    assert main(["train", "--config", str(config), "--reps", "2", "--out", str(runs)]) == 0
    argv = [
        "eval", "--config", str(config),
        "--model", str(runs / "rep1" / "model.npz"),
        "--history", str(runs / "rep1" / "run.csv"),
    ]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "run.csv" in captured.err and "--seed" in captured.err
    assert main(argv + ["--seed", "6"]) == 0  # the config's base_seed is 5
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        fields = line.split()
        if fields[-1].startswith("verdict="):
            printed[(fields[0], fields[1])] = fields[-1].removeprefix("verdict=")
    expected = {
        (row[1], row[2]): row[3]
        for row in read_csv(runs / "verdicts.csv")[1:]
        if row[0] == "1"
    }
    assert printed == expected and len(expected) == 8


def _eval_history_error(project, capsys, edit):
    """The one error line of ``eval --history`` on rep 0's run.csv as
    ``edit`` leaves its rows; an edit that returns bytes gives the file's
    bytes instead."""
    tmp_path, config = project
    runs = tmp_path / "bad_history_runs"
    assert main(["train", "--config", str(config), "--out", str(runs)]) == 0
    edited = edit(read_csv(runs / "rep0" / "run.csv"))
    history = tmp_path / "history.csv"
    if isinstance(edited, bytes):
        history.write_bytes(edited)
    else:
        with open(history, "w", newline="") as fh:
            csv.writer(fh).writerows(edited)
    capsys.readouterr()
    rc = main(
        [
            "eval", "--config", str(config),
            "--model", str(runs / "rep0" / "model.npz"), "--history", str(history),
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    return captured.err


def test_eval_history_without_iteration_column(project, capsys):
    err = _eval_history_error(project, capsys, lambda rows: [row[1:] for row in rows])
    assert "missing column(s) ['iteration']" in err


def test_eval_history_missing_query_column(project, capsys):
    """A history that lacks one test query's column is refused by name, not
    judged with that query's verdict left blank."""
    dropped = []

    def drop_first_test_column(rows):
        col = next(i for i, c in enumerate(rows[0]) if c.startswith("test_latency_ms:"))
        dropped.append(rows[0][col])
        return [row[:col] + row[col + 1:] for row in rows]

    err = _eval_history_error(project, capsys, drop_first_test_column)
    assert f"missing column(s) ['{dropped[0]}']" in err


def _set_cell(column, line, value):
    """An edit of run.csv rows that sets ``column`` on file line ``line``."""

    def edit(rows):
        rows[line - 1][rows[0].index(column)] = value
        return rows

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            _set_cell("test_latency_ms:q07", 5, "nan"),
            ":5: 'test_latency_ms:q07' must be a number above 0, got 'nan'",
        ),
        (_set_cell("wrl_test", 5, "nan"), ":5: 'wrl_test' must be a number above 0, got 'nan'"),
        (
            _set_cell("train_latency_ms:q01", 3, "-5"),
            ":3: 'train_latency_ms:q01' must be a number above 0, got '-5'",
        ),
        (_set_cell("iteration", 4, "1"), ":4: 'iteration' must exceed line 3's 1"),
        (lambda rows: rows[:1], ": 0 record(s); a run's history has at least 2"),
        (lambda rows: rows[:2], ": 1 record(s); a run's history has at least 2"),
        (lambda rows: b"\xff", ": not UTF-8 text: invalid start byte at byte 0"),
    ],
    ids=[
        "nan-test-latency", "nan-wrl-test", "negative-latency", "repeated-iteration",
        "no-records", "one-record", "not-utf8",
    ],
)
def test_eval_history_refuses_a_bad_history_naming_the_file(project, capsys, edit, message):
    """Each of these used to fail with a line that named no file, or that
    blamed the seed: a history is checked once, where run.csv is read."""
    err = _eval_history_error(project, capsys, edit)
    assert err == f"error: {project[0] / 'history.csv'}{message}\n"


GOLDEN_HEADERS = {
    "run.csv": None,  # dynamic per-query columns; prefix checked instead
    "summary.csv": [
        "rep", "seed", "final_wrl_train", "final_wrl_test", "convergence_iteration",
        "plateau_test", "rebound_test", "plateau_train", "rebound_train",
        "regressions_total",
    ],
    "verdicts.csv": [
        "rep", "split", "query_id", "verdict", "first_superior_iteration",
        "regression_iteration",
    ],
    "partition_report.csv": ["policy", "task", "query_ids", "dbi", "selected"],
    "eval.csv": [
        "split", "query_id", "learned_latency_ms", "expert_mean_latency_ms",
        "expert_tolerance_ms", "verdict", "convergence_iteration",
    ],
    "replay_report.csv": [
        "index", "query_id", "stored_at", "norm_td", "recency", "probability",
        "sampled_count",
    ],
}


def test_csv_headers_are_stable(project):
    """Golden header check: CSV layouts are part of the repo contract."""
    tmp_path, config = project
    runs = tmp_path / "golden_runs"
    assert main(["train", "--config", str(config), "--out", str(runs)]) == 0
    assert main(["partition-report", "--config", str(config), "--k-tasks", "2",
                 "--out", str(runs)]) == 0
    assert main(["eval", "--config", str(config), "--model", str(runs / "rep0" / "model.npz"),
                 "--out", str(runs)]) == 0
    assert main(["replay-report", "--config", str(config), "--iterations", "1",
                 "--out", str(runs)]) == 0
    run_header = read_csv(runs / "rep0" / "run.csv")[0]
    assert run_header[:6] == [
        "iteration", "wrl_train", "wrl_test", "buffer_size",
        "mean_sampled_norm_td", "mean_sampled_recency",
    ]
    assert run_header[-1] == "wall_clock_ms"
    assert all(
        col.startswith(("train_latency_ms:", "test_latency_ms:"))
        for col in run_header[6:-1]
    )
    for name, expected in GOLDEN_HEADERS.items():
        path = runs / ("rep0/run.csv" if expected is None else name)
        assert b"\r" not in path.read_bytes(), name
        if expected is not None:
            assert read_csv(path)[0] == expected, name


def test_query_id_with_comma_and_quote_round_trips(project):
    """Query ids are written as csv cells, so an id with a comma and a
    double quote keeps run.csv readable by eval --history and every
    verdicts.csv and summary.csv row as wide as its header."""
    tmp_path, config = project
    train_path = tmp_path / "data" / "train.json"
    doc = json.loads(train_path.read_text())
    doc["queries"][0]["id"] = 'q,"01'
    train_path.write_text(json.dumps(doc))
    runs = tmp_path / "odd_id_runs"
    assert main(["train", "--config", str(config), "--out", str(runs)]) == 0
    out = tmp_path / "odd_id_eval"
    rc = main(
        [
            "eval", "--config", str(config),
            "--model", str(runs / "rep0" / "model.npz"),
            "--history", str(runs / "rep0" / "run.csv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert 'train_latency_ms:q,"01' in read_csv(runs / "rep0" / "run.csv")[0]
    assert 'q,"01' in [row[1] for row in read_csv(out / "eval.csv")]
    verdicts = read_csv(runs / "verdicts.csv")
    assert 'q,"01' in [row[2] for row in verdicts]
    for name in ("verdicts.csv", "summary.csv"):
        header, *rows = read_csv(runs / name)
        assert rows and all(len(row) == len(header) for row in rows), name
