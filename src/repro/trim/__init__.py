"""Trimming of ranking inequalities from join queries (Sections 3 and 6).

Only ``approx-pivot`` trims: Theorem 6.2's ε-lossy trim of a SUM lives in
:mod:`repro.approx`.  Exact SUM counts over the cover pair
(:class:`repro.core.quantile.CoverCounting`, Theorem 5.6's tractable side,
by counting rather than Lemma 5.5's trimmed database), and MIN, MAX and LEX
answer by counting bisection (:class:`repro.core.quantile.WeightBisection`).
"""

from repro.trim.base import Trimmer

__all__ = [
    "Trimmer",
]
