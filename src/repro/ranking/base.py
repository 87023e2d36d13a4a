"""Base interface for aggregate ranking functions.

A ranking function (Section 2.2) is a pair ``(w, ⪯)``: answers are mapped to a
weight domain with a total order.  We implement the *weight aggregation model*
of the paper: every weighted variable ``x ∈ U_w`` has an input-weight function
``w_x : dom → dom_w`` and the answer weight is the aggregate of the variable
weights.

All concrete rankings in this package (SUM, MIN, MAX, LEX) are
*subset-monotone* (Section 2.2), which is the property the generic pivot
selection of Section 4 relies on.  Weight values are required to be directly
comparable with Python's ``<`` (floats for SUM/MIN/MAX, tuples for LEX), so
the library never needs a custom comparator.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.exceptions import RankingError

Weight = Any
Value = Any


class RankingFunction(abc.ABC):
    """Abstract aggregate ranking function over a set of weighted variables.

    Subclasses define the aggregate (``combine``) and the neutral weight of
    an empty multiset (``identity``).
    """

    #: Short human-readable name ("SUM", "MIN", "MAX", "LEX").
    name: str = "ranking"

    def __init__(
        self,
        variables: Sequence[str],
        weights: Mapping[str, Any] | None = None,
    ) -> None:
        if not variables:
            raise RankingError("a ranking function needs at least one weighted variable")
        if len(set(variables)) != len(tuple(variables)):
            raise RankingError(f"weighted variables contain duplicates: {variables}")
        self.weighted_variables: tuple[str, ...] = tuple(variables)
        self._weights: dict[str, Any] = dict(weights or {})
        unknown = set(self._weights) - set(self.weighted_variables)
        if unknown:
            raise RankingError(
                f"weight functions given for non-weighted variables: {sorted(unknown)}"
            )

    # ------------------------------------------------------------------ #
    # Hooks to be provided by concrete rankings
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def identity(self) -> Weight:
        """Aggregate of the empty multiset (weight of an answer with no
        weighted variable assigned yet)."""

    @abc.abstractmethod
    def combine(self, left: Weight, right: Weight) -> Weight:
        """Aggregate two already-aggregated weights (associative, commutative)."""

    # ------------------------------------------------------------------ #
    # Variable weights
    # ------------------------------------------------------------------ #
    def variable_weight(self, variable: str, value: Value) -> Weight:
        """``w_x(value)`` lifted into the weight domain of this ranking.

        The default applies the per-variable weight function (identity if not
        configured) and returns a plain number; LEX overrides this to embed
        the number at the variable's lexicographic position.  A value whose
        weight is not a number, or is NaN (which has no order), raises
        :class:`RankingError`; ±inf is a weight.
        """
        weight_fn = self._weights.get(variable)
        try:
            weight = float(value) if weight_fn is None else float(weight_fn(value))
        except (TypeError, ValueError, OverflowError) as error:
            raise _not_a_weight(variable, value) from error
        if weight != weight:
            raise _not_a_weight(variable, value)
        return weight

    # ------------------------------------------------------------------ #
    # Aggregation over assignments
    # ------------------------------------------------------------------ #
    def aggregate(self, weights: Iterable[Weight]) -> Weight:
        """Aggregate a multiset of (already lifted) weights."""
        result = self.identity
        for weight in weights:
            result = self.combine(result, weight)
        return result

    def weight_of(self, assignment: Mapping[str, Value]) -> Weight:
        """Weight of a (possibly partial) answer.

        Only the weighted variables present in ``assignment`` contribute; the
        rest are treated as absent (this is exactly the multiset the paper
        aggregates for partial query answers).
        """
        result = self.identity
        for variable in self.weighted_variables:
            if variable in assignment:
                result = self.combine(
                    result, self.variable_weight(variable, assignment[variable])
                )
        return result

    # ------------------------------------------------------------------ #
    # Validation / description
    # ------------------------------------------------------------------ #
    def validate_for(self, query_variables: Iterable[str]) -> None:
        """Raise :class:`RankingError` if some weighted variable is not a
        variable of the query."""
        missing = set(self.weighted_variables) - set(query_variables)
        if missing:
            raise RankingError(
                f"{self.name} ranking refers to variables not in the query: "
                f"{sorted(missing)}"
            )

    def describe(self) -> str:
        """One-line description, e.g. ``SUM(x1, x2)``."""
        return f"{self.name}({', '.join(self.weighted_variables)})"

    def __repr__(self) -> str:
        return self.describe()


def _not_a_weight(variable: str, value: Value) -> RankingError:
    return RankingError(f"{variable} = {value!r} has no weight (a float other than NaN)")


def nan_answer_error(ranking: RankingFunction) -> RankingError:
    """The error for a SUM of +inf and -inf: the answer weighs NaN, which has
    no order."""
    return RankingError(f"an answer's {ranking.describe()} adds +inf to -inf, which is NaN")
