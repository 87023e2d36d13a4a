"""Predicates over the aggregated answer weight ``w(U_w)``.

The partitioning step of the pivoting framework (Section 3) generates
inequalities of the form ``w(U_w) < λ`` and ``w(U_w) > λ`` that the trimming
subroutines must remove from the query.  :class:`RankPredicate` is the common
currency between the driver (Algorithm 1) and the trimmers, and
:class:`WeightInterval` bundles the pair of inequalities that delimit the
current candidate region.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

Weight = Any


class Comparison(str, Enum):
    """Comparison operators on the weight domain."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def is_upper_bound(self) -> bool:
        """Whether the predicate bounds the weight from above (``<`` / ``<=``)."""
        return self in (Comparison.LT, Comparison.LE)

    @property
    def is_strict(self) -> bool:
        """Whether the comparison excludes equality."""
        return self in (Comparison.LT, Comparison.GT)

    def holds(self, weight: Weight, threshold: Weight) -> bool:
        """Evaluate ``weight <op> threshold``."""
        if self is Comparison.LT:
            return weight < threshold
        if self is Comparison.LE:
            return weight <= threshold
        if self is Comparison.GT:
            return weight > threshold
        return weight >= threshold


@dataclass(frozen=True)
class RankPredicate:
    """An inequality ``w(U_w) <op> threshold`` on the answer weight."""

    comparison: Comparison
    threshold: Weight

    def holds(self, weight: Weight) -> bool:
        """Whether an answer with the given weight satisfies the predicate."""
        return self.comparison.holds(weight, self.threshold)

    def __str__(self) -> str:
        return f"w(U_w) {self.comparison.value} {self.threshold!r}"


@dataclass(frozen=True)
class WeightInterval:
    """An open/closed interval of weights describing the candidate region.

    ``low=None`` means unbounded below, ``high=None`` unbounded above.  The
    default is the open interval used by Algorithm 1 (``low < w < high``).
    """

    low: Weight | None = None
    high: Weight | None = None
    low_strict: bool = True
    high_strict: bool = True

    def contains(self, weight: Weight) -> bool:
        """Whether a weight falls inside the interval."""
        if self.low is not None:
            if self.low_strict and not weight > self.low:
                return False
            if not self.low_strict and not weight >= self.low:
                return False
        if self.high is not None:
            if self.high_strict and not weight < self.high:
                return False
            if not self.high_strict and not weight <= self.high:
                return False
        return True

    @property
    def is_unbounded(self) -> bool:
        """Whether neither side is bounded (the full weight domain)."""
        return self.low is None and self.high is None

    def predicates(self) -> list[RankPredicate]:
        """The (zero, one, or two) rank predicates equivalent to the interval."""
        out: list[RankPredicate] = []
        if self.low is not None:
            op = Comparison.GT if self.low_strict else Comparison.GE
            out.append(RankPredicate(op, self.low))
        if self.high is not None:
            op = Comparison.LT if self.high_strict else Comparison.LE
            out.append(RankPredicate(op, self.high))
        return out

    def with_high(self, high: Weight, strict: bool = True) -> "WeightInterval":
        """A copy of the interval with the upper bound replaced."""
        return WeightInterval(self.low, high, self.low_strict, strict)

    def with_low(self, low: Weight, strict: bool = True) -> "WeightInterval":
        """A copy of the interval with the lower bound replaced."""
        return WeightInterval(low, self.high, strict, self.high_strict)

    def __str__(self) -> str:
        left = "(" if self.low_strict else "["
        right = ")" if self.high_strict else "]"
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return f"{left}{low}, {high}{right}"
