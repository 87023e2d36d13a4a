"""Lexicographic (LEX) ranking over an ordered list of variables.

Per Section 2.2, a lexicographic order fits the aggregate ranking model by
mapping every weighted variable to a tuple that is zero everywhere except at
the variable's position; aggregation is element-wise addition and comparison
is lexicographic on the resulting tuples.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.ranking.base import RankingFunction, Weight


class LexRanking(RankingFunction):
    """Order answers lexicographically by ``(w'_{x1}(x1), ..., w'_{xr}(xr))``.

    Parameters
    ----------
    variables:
        The weighted variables, **in lexicographic priority order** (the first
        variable is the most significant).
    keys:
        Optional per-variable key functions ``w'_x`` mapping domain values to
        numbers; defaults to the numeric cast.

    Examples
    --------
    >>> ranking = LexRanking(["a", "b"])
    >>> ranking.weight_of({"a": 2, "b": 9})
    (2.0, 9.0)
    >>> ranking.weight_of({"b": 9})
    (0.0, 9.0)
    """

    name = "LEX"

    def __init__(
        self,
        variables: Sequence[str],
        keys: Mapping[str, Callable[[Any], float]] | None = None,
    ) -> None:
        super().__init__(variables, keys)

    # ------------------------------------------------------------------ #
    @property
    def arity(self) -> int:
        """Number of lexicographic positions."""
        return len(self.weighted_variables)

    @property
    def identity(self) -> tuple[float, ...]:
        return (0.0,) * self.arity

    def combine(self, left: Weight, right: Weight) -> tuple[float, ...]:
        return tuple(a + b for a, b in zip(left, right))

    # ------------------------------------------------------------------ #
    #: The scalar key ``w'_x(value)`` of one variable: the base class's
    #: numeric weight, before :meth:`variable_weight` embeds it.
    key_of = RankingFunction.variable_weight

    def variable_weight(self, variable: str, value: Any) -> tuple[float, ...]:
        """Embed one variable's key at its lexicographic position."""
        position = self.weighted_variables.index(variable)
        weight = [0.0] * self.arity
        weight[position] = self.key_of(variable, value)
        return tuple(weight)
