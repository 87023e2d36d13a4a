"""Shared infrastructure of the benchmark harness.

Each experiment is a function that returns an :class:`ExperimentResult`: a
named table of rows (dictionaries) whose columns are what the corresponding
claim in the paper talks about — sizes, running times, observed errors, and
who-wins factors.  ``python -m repro.bench`` runs them from the registry;
``--quick`` and the smoke tests pass scaled-down parameters.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """The output table of one experiment.

    Attributes
    ----------
    experiment:
        Experiment identifier (``"E1"``, ``"A3"``, ...).
    title:
        One-line title shown above the table.
    claim:
        The paper claim the experiment validates.
    columns:
        Column order for rendering.
    rows:
        One dict per configuration, keyed by column name.
    notes:
        Free-form observations computed by the experiment (e.g. measured
        growth factors), printed under the table.
    """

    experiment: str
    title: str
    claim: str
    columns: Sequence[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def time_call(func: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``func`` once and return ``(result, seconds)`` (wall clock)."""
    start = time.perf_counter()
    result = func()
    elapsed = time.perf_counter() - start
    return result, elapsed


def growth_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size).

    Quasilinear algorithms show an exponent close to 1 (log factors nudge it
    slightly above); materialization over a join whose output grows
    quadratically shows an exponent close to 2.
    """
    import math

    pairs = [
        (math.log(size), math.log(duration))
        for size, duration in zip(sizes, times)
        if size > 0 and duration > 0
    ]
    if len(pairs) < 2:
        return float("nan")
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    denominator = sum((x - mean_x) ** 2 for x, _ in pairs)
    if denominator == 0:
        return float("nan")
    return numerator / denominator


def rank_of_weight(sorted_weights: Sequence[Any], weight: Any) -> tuple[int, int]:
    """Return the (lowest, highest) 0-based rank a weight can occupy.

    Used to measure the observed position error of approximate answers: the
    answer is within ε of the target if the target index falls within
    ``[lowest, highest]`` extended by ε·N on both sides.
    """
    from bisect import bisect_left, bisect_right

    lo = bisect_left(sorted_weights, weight)
    hi = bisect_right(sorted_weights, weight) - 1
    return lo, max(lo, hi)


def observed_rank_error(
    sorted_weights: Sequence[Any], weight: Any, target_index: int
) -> float:
    """Relative position error of an answer with ``weight`` vs the target index.

    Zero when the target index lies within the tie range of the weight;
    otherwise the distance to the closer end of the tie range, divided by the
    number of answers.
    """
    total = len(sorted_weights)
    if total == 0:
        return 0.0
    lo, hi = rank_of_weight(sorted_weights, weight)
    if lo <= target_index <= hi:
        return 0.0
    distance = lo - target_index if target_index < lo else target_index - hi
    return distance / total
