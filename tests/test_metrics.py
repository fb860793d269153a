import math

import numpy as np
import pytest

from joinopt.metrics import (
    RobustnessVerdict,
    Verdict,
    classify_query,
    convergence_iteration,
    wrl,
)
from joinopt.simulator import ExpertBaseline


def baseline(mean=10.0, std=1.0, qid="q"):
    return ExpertBaseline(
        query_id=qid,
        mean_latency_ms=mean,
        std_latency_ms=std,
        tolerance_ms=2 * std,
        n_runs=10,
    )


def classify(latencies, mean=10.0, std=1.0, start=0, step=5, **kwargs):
    """``classify_query`` of these latencies, evaluated every ``step``
    iterations from ``start``, against an expert of this mean and std."""
    points = [(start + i * step, lat) for i, lat in enumerate(latencies)]
    return classify_query(points, baseline(mean, std), **kwargs)


# --- wrl --------------------------------------------------------------------

def test_wrl_identity():
    latencies = {"a": 3.0, "b": 7.0}
    assert wrl(latencies, dict(latencies)) == 1.0


def test_wrl_half():
    assert wrl({"a": 2.0, "b": 3.0}, {"a": 4.0, "b": 6.0}) == pytest.approx(0.5)


def test_wrl_speedup_reciprocal():
    """WRL 0.64 corresponds to a ~1.56x speedup (reciprocal semantics)."""
    learned = {"a": 0.64}
    expert = {"a": 1.0}
    value = wrl(learned, expert)
    assert value == pytest.approx(0.64)
    assert 1.0 / value == pytest.approx(1.5625)
    assert abs(1.0 / value - 1.55) < 0.02


def test_wrl_scale_invariant(rng):
    for _ in range(10):
        keys = [f"q{i}" for i in range(5)]
        learned = {k: float(rng.uniform(1, 100)) for k in keys}
        expert = {k: float(rng.uniform(1, 100)) for k in keys}
        c = float(rng.uniform(0.1, 50))
        scaled = wrl({k: v * c for k, v in learned.items()}, {k: v * c for k, v in expert.items()})
        assert scaled == pytest.approx(wrl(learned, expert))


# --- classify_query ------------------------------------------------------------

def test_all_below_band_superior():
    verdict = classify([9.0, 10.5, 11.9, 10.0])
    assert verdict.verdict is Verdict.SUPERIOR
    assert verdict.first_superior_iteration == 0
    assert verdict.regression_iteration is None


def test_all_above_band_plateau():
    verdict = classify([15.0, 13.0, 12.5, 14.0])
    assert verdict.verdict is Verdict.PLATEAU
    assert verdict.first_superior_iteration is None


def test_first_half_superior_then_inferior_rebound():
    lats = [9.0, 9.5, 10.0, 13.0, 14.0, 15.0, 16.0, 15.0, 14.0, 13.5]
    verdict = classify(lats, window_fraction=0.3)
    assert verdict.verdict is Verdict.REBOUND
    assert verdict.first_superior_iteration == 0
    assert verdict.regression_iteration == 15  # first point after last superior


def test_boundary_point_is_superior():
    """Latency exactly at mean + tolerance counts as superior (within band)."""
    verdict = classify([12.0, 12.0])
    assert verdict.verdict is Verdict.SUPERIOR


def test_infinite_tolerance_always_superior(rng):
    for _ in range(10):
        lats = list(rng.uniform(1, 1e6, size=8))
        points = list(enumerate(lats))
        verdict = classify_query(points, ExpertBaseline("q", 1.0, 0.0, math.inf, 10))
        assert verdict.verdict is Verdict.SUPERIOR


def test_band_excluding_everything_always_plateau(rng):
    for _ in range(10):
        lats = list(rng.uniform(1, 10, size=8))
        points = list(enumerate(lats))
        verdict = classify_query(points, ExpertBaseline("q", 1e-9, 0.0, 0.0, 10))
        assert verdict.verdict is Verdict.PLATEAU


def test_verdicts_partition_random_traces(rng):
    """Exactly one verdict per trace, consistent with direct recomputation."""
    for _ in range(200):
        n = int(rng.integers(2, 15))
        lats = rng.uniform(5, 15, size=n)
        verdict = classify(list(lats), window_fraction=0.25)
        threshold = baseline().mean_latency_ms + baseline().tolerance_ms
        inferior = [lat > threshold for lat in lats]
        window = max(1, math.ceil(0.25 * n))
        expected_plateau = all(inferior)
        expected_rebound = (
            not expected_plateau
            and all(inferior[n - window :])
            and any(not b for b in inferior[: n - window])
        )
        if expected_plateau:
            assert verdict.verdict is Verdict.PLATEAU
        elif expected_rebound:
            assert verdict.verdict is Verdict.REBOUND
        else:
            assert verdict.verdict is Verdict.SUPERIOR


# --- convergence ------------------------------------------------------------------

def test_convergence_never_below():
    series = [(0, 10.0), (5, 9.0), (10, 8.0)]
    assert convergence_iteration(series, 5.0, 0.0, sustain=2) is None


def test_convergence_trace_example():
    series = [(0, 10.0), (1, 6.0), (2, 4.0), (3, 4.0), (4, 4.0)]
    assert convergence_iteration(series, 5.0, 0.0, sustain=3) == 2


def test_convergence_sustain_guard():
    series = [(0, 10.0), (1, 4.0), (2, 9.0), (3, 8.0), (4, 7.0)]
    assert convergence_iteration(series, 5.0, 0.0, sustain=3) is None


def test_convergence_tail_too_short():
    series = [(0, 10.0), (1, 10.0), (2, 4.0)]
    assert convergence_iteration(series, 5.0, 0.0, sustain=3) is None


def test_convergence_monotone_in_threshold(rng):
    """Raising the expert total never increases the convergence iteration."""
    for _ in range(30):
        series = [(i, float(rng.uniform(1, 20))) for i in range(12)]
        thresholds = sorted(rng.uniform(1, 20, size=4))
        results = [
            convergence_iteration(series, th, 0.0, sustain=2) for th in thresholds
        ]
        cleaned = [math.inf if r is None else r for r in results]
        assert all(a >= b for a, b in zip(cleaned, cleaned[1:]))
