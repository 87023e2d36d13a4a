"""Randomized ε-approximate quantiles by uniform sampling (Section 3.1).

Sampling answers uniformly at random (via the direct-access structure) and
returning the φ-quantile of the sample gives a (φ ± ε)-quantile with high
probability: by Hoeffding's inequality, O(1/ε²) samples suffice for a single
estimate to fail with constant probability, and taking the median of
O(log(1/δ)) independent estimates drives the failure probability below δ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

from repro.core.quantile import check_phi
from repro.data.database import Database
from repro.exceptions import ValidationError
from repro.joins.message_passing import MaterializedTree
from repro.joins.sampling import AnswerSampler
from repro.query.join_query import JoinQuery
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint

Assignment = dict[str, Any]


@dataclass(frozen=True)
class SamplingQuantileResult:
    """Outcome of the randomized approximation.

    Attributes
    ----------
    assignment:
        The returned answer (one of the sampled answers).
    weight:
        Its weight under the ranking function.
    samples_used:
        Total number of uniform samples drawn.
    repetitions:
        Number of independent estimates whose median was taken.
    """

    assignment: Assignment
    weight: Any
    samples_used: int
    repetitions: int


def sampling_quantile(
    query: JoinQuery,
    db: Database,
    ranking: RankingFunction,
    phi: float,
    epsilon: float,
    delta: float = 0.05,
    seed: int | random.Random | None = None,
    tree: MaterializedTree | None = None,
) -> SamplingQuantileResult:
    """Return a (φ ± ε)-quantile with probability at least ``1 − δ``.

    Parameters
    ----------
    phi:
        Requested quantile position in ``[0, 1]``.
    epsilon:
        Allowed error on the position, in ``(0, 1)``.
    delta:
        Allowed failure probability.
    seed:
        Seed or :class:`random.Random` for reproducibility.
    tree:
        Optionally, a pre-built materialized tree for (query, db); the
        direct-access structure is then built over it instead of
        re-materializing the atoms.
    """
    check_phi(phi)
    if not 0 < epsilon < 1:
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    sampler = AnswerSampler(query, db, seed=seed, tree=tree)
    sample_size = max(1, math.ceil(math.log(4.0 / delta) / (2.0 * epsilon * epsilon)))
    repetitions = max(1, math.ceil(math.log(2.0 / delta)))

    estimates: list[tuple[Any, Assignment]] = []
    for _ in range(repetitions):
        checkpoint("sampling.estimate")
        sample = sampler.sample_many(sample_size)
        sample.sort(key=ranking.weight_of)
        index = min(len(sample) - 1, int(math.floor(phi * len(sample))))
        chosen = sample[index]
        estimates.append((ranking.weight_of(chosen), chosen))
    estimates.sort(key=lambda pair: pair[0])
    weight, assignment = estimates[len(estimates) // 2]
    return SamplingQuantileResult(
        assignment=dict(assignment),
        weight=weight,
        samples_used=sample_size * repetitions,
        repetitions=repetitions,
    )
