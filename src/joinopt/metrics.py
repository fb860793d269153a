"""Evaluation formulas: workload relative latency, per-query robustness
verdicts against the expert tolerance band, and convergence detection.

An evaluation is inferior when its latency exceeds the expert mean plus the
tolerance band (twice the expert std); matching the expert within noise
counts as superior.  A query Plateaus when every evaluation is inferior and
Rebounds when it was superior at some point before the terminal window but
is inferior throughout that window.

The formulas check nothing: their inputs are checked where they enter, by
``simulator.expert_baseline`` for the expert latencies and by
``trainer.read_run_csv`` for a history read back from a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .simulator import ExpertBaseline

__all__ = [
    "Verdict",
    "RobustnessVerdict",
    "fold_sum",
    "wrl",
    "classify_query",
    "convergence_iteration",
]


class Verdict(Enum):
    SUPERIOR = "superior"
    PLATEAU = "plateau"
    REBOUND = "rebound"


@dataclass(frozen=True)
class RobustnessVerdict:
    verdict: Verdict
    first_superior_iteration: int | None = None
    regression_iteration: int | None = None


def fold_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.  Python's built-in ``sum``
    does this up to 3.11; from 3.12 it compensates float rounding, so its
    last bits would depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def wrl(learned: Mapping[str, float], expert: Mapping[str, float]) -> float:
    """Workload relative latency: total learned latency over total expert
    latency of the same queries, each summed by ``fold_sum``; below 1 means
    the learned optimizer is faster."""
    return fold_sum(learned.values()) / fold_sum(expert.values())


def classify_query(
    points: Sequence[tuple[int, float]],
    baseline: ExpertBaseline,
    window_fraction: float = 0.1,
) -> RobustnessVerdict:
    """Plateau / Rebound / Superior verdict for one query's evaluations,
    given as at least two (iteration, latency ms) points in increasing
    iteration order.

    The terminal window spans the last ceil(window_fraction * n) evaluations.
    """
    threshold = baseline.mean_latency_ms + baseline.tolerance_ms
    inferior = [lat > threshold for _, lat in points]
    if all(inferior):
        return RobustnessVerdict(Verdict.PLATEAU)
    first_superior = next(points[i][0] for i, bad in enumerate(inferior) if not bad)
    n = len(points)
    window = max(1, math.ceil(window_fraction * n))
    window_start = n - window
    superior_before_window = any(not bad for bad in inferior[:window_start])
    if superior_before_window and all(inferior[window_start:]):
        # Regression begins right after the last superior evaluation.
        last_superior = max(i for i, bad in enumerate(inferior) if not bad)
        return RobustnessVerdict(
            Verdict.REBOUND,
            first_superior_iteration=first_superior,
            regression_iteration=points[last_superior + 1][0],
        )
    return RobustnessVerdict(Verdict.SUPERIOR, first_superior_iteration=first_superior)


def convergence_iteration(
    series: Sequence[tuple[int, float]],
    expert_total: float,
    expert_total_tolerance: float,
    sustain: int = 3,
) -> int | None:
    """First iteration whose aggregated test latency stays at or below
    expert_total + tolerance for ``sustain`` consecutive evaluations; None
    when the workload never converges."""
    threshold = expert_total + expert_total_tolerance
    ok = [lat <= threshold for _, lat in series]
    for i in range(len(ok) - sustain + 1):
        if all(ok[i : i + sustain]):
            return series[i][0]
    return None
