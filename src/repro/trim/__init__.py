"""Trimming of ranking inequalities from join queries (Sections 5 and 6).

Algorithm 1 trims for SUM only (Theorem 5.6's tractable side here, Theorem
6.2's ε-lossy trim in :mod:`repro.approx`); MIN, MAX and LEX answer by
counting bisection (:class:`repro.core.quantile.WeightBisection`).
"""

from repro.trim.base import Trimmer
from repro.trim.sum_adjacent_trim import SumAdjacentTrimmer

__all__ = [
    "Trimmer",
    "SumAdjacentTrimmer",
]
