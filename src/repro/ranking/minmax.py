"""MIN and MAX rankings over weighted variables.

The tractability of these rankings for every acyclic JQ is one of the paper's
headline results (Theorem 5.3); before the paper their complexity was open.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import Any

from repro.ranking.base import RankingFunction


class MinRanking(RankingFunction):
    """Order answers by ``min_{x in U_w} w_x(q[x])``.

    Examples
    --------
    >>> MinRanking(["a", "b"]).weight_of({"a": 7, "b": 3})
    3.0
    """

    name = "MIN"

    def __init__(
        self,
        variables: Sequence[str],
        weights: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(variables, weights)

    @property
    def identity(self) -> float:
        # The minimum of an empty multiset: neutral element of min.
        return math.inf

    def combine(self, left: float, right: float) -> float:
        return left if left <= right else right


class MaxRanking(RankingFunction):
    """Order answers by ``max_{x in U_w} w_x(q[x])``.

    Examples
    --------
    >>> MaxRanking(["a", "b"]).weight_of({"a": 7, "b": 3})
    7.0
    """

    name = "MAX"

    def __init__(
        self,
        variables: Sequence[str],
        weights: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(variables, weights)

    @property
    def identity(self) -> float:
        # The maximum of an empty multiset: neutral element of max.
        return -math.inf

    def combine(self, left: float, right: float) -> float:
        return left if left >= right else right
