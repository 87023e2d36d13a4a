"""The candidate region of Algorithm 1: an interval of answer weights.

The partitioning step of the pivoting framework (Section 3) narrows the
candidate answers to those with ``low < w(U_w) < high``;
:class:`WeightInterval` is the common currency between the driver and the
trimmers, which remove both inequalities from the query in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

Weight = Any


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
