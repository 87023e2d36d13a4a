"""Randomized ε-approximate quantiles by uniform sampling (Section 3.1).

A uniform index decoded through the direct-access structure is a uniformly
random answer.  By Hoeffding's inequality, the φ-quantile of
``⌈ln(4/δ)/2ε²⌉`` such answers is a (φ ± ε)-quantile with constant
probability, and the median of ``⌈ln(2/δ)⌉`` independent estimates fails
with probability below δ.  :class:`SampledAnswers` draws those samples once
per prepared query, and every φ is then a select on them.
"""

from __future__ import annotations

import math
import random
from collections.abc import Collection
from operator import itemgetter
from typing import Any

from repro.core.quantile import phi_for_index, project, refuse_nan_sums, resolve_target
from repro.core.result import QuantileResult
from repro.joins.direct_access import DirectAccess
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint

Assignment = dict[str, Any]

#: Allowed failure probability of one φ's estimate.
DELTA = 0.05
#: Independent estimates whose median is taken.
REPETITIONS = math.ceil(math.log(2.0 / DELTA))


class SampledAnswers:
    """The ``sampling`` source: :data:`REPETITIONS` repetitions of
    ``⌈ln(4/δ)/2ε²⌉`` uniform answers of ``access``, drawn in that order
    from one ``random.Random(seed)`` and each stably sorted by weight.

    A φ takes index ``⌊φ·m⌋`` of each repetition and returns the upper
    median of those estimates by weight (stably sorted); a selection asks
    for the φ of :func:`~repro.core.quantile.phi_for_index`.  Assignments
    are held projected to ``keep``.
    """

    strategy = "sampling"

    def __init__(
        self,
        access: DirectAccess,
        ranking: RankingFunction,
        epsilon: float,
        seed: int | None,
        keep: Collection[str],
    ) -> None:
        refuse_nan_sums(access.tree, ranking)
        self.epsilon = epsilon
        self.keep = keep
        self.total = len(access)
        self.size = math.ceil(math.log(4.0 / DELTA) / (2.0 * epsilon * epsilon))
        rng = random.Random(seed)
        self.samples: list[list[tuple[Any, Assignment]]] = []
        for _ in range(REPETITIONS if self.total else 0):
            checkpoint("sampling.estimate")
            drawn: list[tuple[Any, Assignment]] = []
            for _ in range(self.size):
                checkpoint("sampling.sample", rows=1)
                answer = access[rng.randrange(self.total)]
                drawn.append((ranking.weight_of(answer), project(answer, keep)))
            self.samples.append(sorted(drawn, key=itemgetter(0)))

    def answer(self, phi: float | None, index: int | None) -> QuantileResult:
        """The estimate for ``phi``, or for the answer at ``index``."""
        target = resolve_target(phi, index, self.total)
        if phi is None:
            phi = phi_for_index(target, self.total)
        position = min(self.size - 1, math.floor(phi * self.size))
        estimates = sorted((sample[position] for sample in self.samples), key=itemgetter(0))
        weight, assignment = estimates[len(estimates) // 2]
        return QuantileResult(
            assignment=dict(assignment),
            weight=weight,
            target_index=target,
            total_answers=self.total,
            strategy=self.strategy,
            exact=False,
            epsilon=self.epsilon,
        )

    def estimated_bytes(self) -> int:
        return len(self.samples) * self.size * (len(self.keep) + 1) * 16
