"""SUM ranking: answers ordered by the sum of weighted-variable weights.

Covers both *full SUM* (``U_w = var(Q)``) and *partial SUM* (any subset), the
distinction that drives the dichotomy of Theorem 5.6.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.ranking.base import RankingFunction


class SumRanking(RankingFunction):
    """Order answers by ``sum_{x in U_w} w_x(q[x])``.

    Parameters
    ----------
    variables:
        The weighted variables ``U_w``.
    weights:
        Optional per-variable weight functions ``w_x``; the identity (numeric
        cast) is used for variables without an entry.

    Examples
    --------
    >>> ranking = SumRanking(["x", "z"])
    >>> ranking.weight_of({"x": 2, "y": 100, "z": 3})
    5.0
    """

    name = "SUM"

    def __init__(
        self,
        variables: Sequence[str],
        weights: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(variables, weights)

    @property
    def identity(self) -> float:
        return 0.0

    def combine(self, left: float, right: float) -> float:
        return left + right
