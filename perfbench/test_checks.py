"""Each benchmark check accepts good outputs and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402

CATALOG = {
    "tables": [
        {"name": "a", "row_count": 1000, "row_width_bytes": 8, "filter_selectivity": 0.5},
        {"name": "b", "row_count": 50000, "row_width_bytes": 16},
        {"name": "c", "row_count": 200, "row_width_bytes": 32, "filter_selectivity": 0.9},
        {"name": "d", "row_count": 900000, "row_width_bytes": 64},
    ],
    "selectivities": [
        {"tables": ["a", "b"], "selectivity": 0.001},
        {"tables": ["b", "c"], "selectivity": 0.02},
    ],
    "default_selectivity": 0.1,
}
COST = {
    "scan_cost_per_row": 0.1,
    "cpu_cost_per_row": 0.2,
    "hash_build_cost_per_row": 0.3,
    "nlj_cost_per_row_pair": 0.001,
    "merge_sort_cost_per_row_log_row": 0.05,
    "latency_per_cost_unit": 0.001,
    "noise_rel_sigma": 0.05,
}
QUERY = {
    "relations": ["a", "b", "c", "d"],
    "join_edges": [["a", "b"], ["b", "c"], ["b", "d"], ["c", "d"]],
}
EDGES = [tuple(e) for e in QUERY["join_edges"]]
MODEL = checks.Model(CATALOG, COST)


def all_plans(rels):
    """Every cross-product-free bushy plan over the relation set (none when
    the set is not connected)."""
    rels = tuple(sorted(rels))
    if len(rels) == 1:
        yield rels[0]
        return
    for size in range(1, len(rels)):
        for left in itertools.combinations(rels, size):
            right = tuple(r for r in rels if r not in left)
            if not any((a in left and b in right) or (a in right and b in left) for a, b in EDGES):
                continue
            for lp, rp in itertools.product(all_plans(left), all_plans(right)):
                for op in ("hash", "merge", "nested_loop"):
                    yield [op, lp, rp]


def brute_force_latency():
    # all_plans yields only plans whose every fragment is connected.
    return min(
        checks.plan_latency(MODEL, plan, EDGES)[0] for plan in all_plans(QUERY["relations"])
    )


def test_dp_matches_brute_force_and_rejects_a_wrong_expert():
    dp = checks.dp_latency(MODEL, QUERY["relations"], EDGES)
    assert dp == pytest.approx(brute_force_latency(), rel=1e-12)
    assert checks.check_expert_optimal({"q": dp}, {"q": dp * (1 + 1e-12)}) == []
    assert checks.check_expert_optimal({"q": dp}, {"q": dp * 1.001})
    assert checks.check_expert_optimal({"q": dp}, {})


GOOD_PLAN = ["hash", ["merge", "a", "b"], ["hash", "c", "d"]]


def test_plan_shape_rejects_repeats_gaps_and_cross_products():
    queries = {"q": QUERY}
    assert checks.check_plan_shape(queries, {"q": {"plan": GOOD_PLAN}}) == []
    repeated = ["hash", ["merge", "a", "b"], ["hash", "b", "d"]]
    missing = ["hash", ["merge", "a", "b"], "c"]
    cross = ["hash", ["merge", "a", "c"], ["hash", "b", "d"]]  # a and c share no edge
    for plan in (repeated, missing, cross):
        assert checks.check_plan_shape(queries, {"q": {"plan": plan}})
    assert checks.check_plan_shape(queries, {})


def test_plan_cost_rejects_a_wrong_latency():
    latency, _ = checks.plan_latency(MODEL, GOOD_PLAN, EDGES)
    queries = {"q": QUERY}
    good = {"q": {"plan": GOOD_PLAN, "noiseless_latency": latency}}
    assert checks.check_plan_cost(MODEL, queries, good) == []
    bad = {"q": {"plan": GOOD_PLAN, "noiseless_latency": latency * 1.0001}}
    assert checks.check_plan_cost(MODEL, queries, bad)
    other_op = ["nested_loop", ["merge", "a", "b"], ["hash", "c", "d"]]
    swapped = {"q": {"plan": other_op, "noiseless_latency": latency}}
    assert checks.check_plan_cost(MODEL, queries, swapped)


def test_latency_bound_rejects_a_latency_below_the_dp():
    records = [{"iteration": 0, "latencies": {"q": 2.0}}]
    assert checks.check_latency_bound({"q": 2.0}, records) == []
    assert checks.check_latency_bound({"q": 2.1}, records)


def test_buffer_sizes_reject_a_wrong_count():
    records = [
        {"iteration": 0, "buffer_size": 0},
        {"iteration": 5, "buffer_size": 50},
        {"iteration": 10, "buffer_size": 60},
    ]
    assert checks.check_buffer_sizes(records, capacity=60, per_iteration=10) == []
    records[1]["buffer_size"] = 49
    assert checks.check_buffer_sizes(records, capacity=60, per_iteration=10)


HEADER = "iteration,wrl_test,wall_clock_ms\n"
MAIN_CSV = HEADER + "0,1.5,10.0\n5,1.2,20.0\n10,1.1,30.0\n"
REPLICA_CSV = HEADER + "0,1.5,11.0\n1,1.4,12.5\n"


def test_repeatable_ignores_wall_clock_and_rejects_other_changes():
    other = HEADER + "0,1.5,9.0\n1,1.4,13.0\n"
    assert checks.check_repeatable([MAIN_CSV, REPLICA_CSV, other]) == []
    for corrupted in (
        HEADER + "0,1.5,9.0\n1,1.45,13.0\n",  # differs from the other replica
        HEADER + "0,1.55,9.0\n1,1.4,13.0\n",  # differs from the measured run
        "iteration,wrl,wall_clock_ms\n0,1.5,9.0\n1,1.4,13.0\n",  # header
        HEADER + "0,1.5,9.0\n",  # iteration 0 only
        "iteration,wrl_test\n0,1.5\n1,1.4\n",  # no wall-clock column
    ):
        assert checks.check_repeatable([MAIN_CSV, REPLICA_CSV, corrupted])


def test_tracer_fails_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("x.gone", "trainer", "gone", None, None),)
    )
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="does not exist"):
        tracer.install()
    tracer.uninstall()


def test_tracer_fails_on_a_name_that_records_no_call(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    with pytest.raises(tracing.TraceError, match="no call"):
        tracer.report(tmp_path / "spans.csv")
