"""The pivoting quantile algorithm (Algorithm 1) and its result types."""

from repro.core.quantile import phi_for_index, pivoting_quantile, target_index_for
from repro.core.result import IterationStats, QuantileResult

__all__ = [
    "QuantileResult",
    "IterationStats",
    "pivoting_quantile",
    "phi_for_index",
    "target_index_for",
]
