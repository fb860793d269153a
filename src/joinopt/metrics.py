"""Evaluation metrics: workload relative latency, per-query robustness
verdicts against the expert tolerance band, and convergence detection.

An evaluation is inferior when its latency exceeds the expert mean plus the
tolerance band (twice the expert std); matching the expert within noise
counts as superior.  A query Plateaus when every evaluation is inferior and
Rebounds when it was superior at some point before the terminal window but
is inferior throughout that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .simulator import ExpertBaseline

__all__ = [
    "Verdict",
    "QueryTrace",
    "RobustnessVerdict",
    "MetricsError",
    "wrl",
    "classify_query",
    "convergence_iteration",
]


class MetricsError(ValueError):
    """Raised for malformed traces or mismatched latency maps."""


class Verdict(Enum):
    SUPERIOR = "superior"
    PLATEAU = "plateau"
    REBOUND = "rebound"


@dataclass(frozen=True)
class QueryTrace:
    """Per-query evaluation history: (iteration, latency ms) pairs plus the
    expert baseline the latencies are judged against."""

    query_id: str
    points: tuple[tuple[int, float], ...]
    baseline: ExpertBaseline

    def __post_init__(self):
        if not self.points:
            raise MetricsError(f"trace for {self.query_id!r} is empty")
        iterations = [it for it, _ in self.points]
        if any(b <= a for a, b in zip(iterations, iterations[1:])):
            raise MetricsError(f"trace for {self.query_id!r}: iterations not increasing")
        if any(lat <= 0 for _, lat in self.points):
            raise MetricsError(f"trace for {self.query_id!r}: non-positive latency")


@dataclass(frozen=True)
class RobustnessVerdict:
    verdict: Verdict
    first_superior_iteration: int | None = None
    regression_iteration: int | None = None


def wrl(learned: Mapping[str, float], expert: Mapping[str, float]) -> float:
    """Workload relative latency: total learned latency over total expert
    latency; below 1 means the learned optimizer is faster."""
    if not learned:
        raise MetricsError("empty latency maps")
    if set(learned) != set(expert):
        raise MetricsError(
            f"query sets differ: {sorted(set(learned) ^ set(expert))}"
        )
    if any(v <= 0 for v in learned.values()) or any(v <= 0 for v in expert.values()):
        raise MetricsError("latencies must be > 0")
    return sum(learned.values()) / sum(expert.values())


def classify_query(trace: QueryTrace, window_fraction: float = 0.1) -> RobustnessVerdict:
    """Plateau / Rebound / Superior verdict for one query's trace.

    The terminal window spans the last ceil(window_fraction * n) evaluations.
    """
    if len(trace.points) < 2:
        raise MetricsError(f"trace for {trace.query_id!r} needs >= 2 evaluations")
    threshold = trace.baseline.mean_latency_ms + trace.baseline.tolerance_ms
    inferior = [lat > threshold for _, lat in trace.points]
    if all(inferior):
        return RobustnessVerdict(Verdict.PLATEAU)
    first_superior = next(
        trace.points[i][0] for i, bad in enumerate(inferior) if not bad
    )
    n = len(trace.points)
    window = max(1, math.ceil(window_fraction * n))
    window_start = n - window
    superior_before_window = any(not bad for bad in inferior[:window_start])
    if superior_before_window and all(inferior[window_start:]):
        # Regression begins right after the last superior evaluation.
        last_superior = max(i for i, bad in enumerate(inferior) if not bad)
        return RobustnessVerdict(
            Verdict.REBOUND,
            first_superior_iteration=first_superior,
            regression_iteration=trace.points[last_superior + 1][0],
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
