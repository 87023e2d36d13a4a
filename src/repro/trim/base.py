"""Trimmer interface: removing the candidate interval's inequalities from a query.

Algorithm 1 asks a trimmer for one thing: the candidate region between two
weight bounds.  Definition 3.2 (predicate trimming), applied to both bounds:
given a query ``Q`` and an interval ``I`` of answer weights, produce a new
query ``Q'`` (of constant size, with ``var(Q) ⊆ var(Q')``) and database
``D'`` such that ``Q'(D')`` is in bijection with the answers of ``Q`` whose
weight lies in ``I`` — the bijection drops the helper variables
``var(Q') − var(Q)`` that the trimming introduced.

Definition 3.5 (ε-lossy trimming) relaxes the bijection to an injection that
retains at least a ``1 − ε`` fraction of the answers inside ``I``.
"""

from __future__ import annotations

import abc

from repro.data.database import Database
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.ranking.base import RankingFunction


class Trimmer(abc.ABC):
    """Base class of all trimming constructions.

    A trimmer is specific to a ranking function (it must know how the weight
    aggregates over variables) and implements :meth:`trim_interval`, whose
    ``(Q', D')`` is the handle a candidate source counts, pivots and sorts.
    """

    #: Whether trims produced by this trimmer lose answers (Definition 3.5).
    lossy: bool = False

    def __init__(self, ranking: RankingFunction) -> None:
        self.ranking = ranking

    @abc.abstractmethod
    def trim_interval(
        self, query: JoinQuery, db: Database, interval: WeightInterval
    ) -> tuple[JoinQuery, Database]:
        """``(Q', D')`` for the answers with ``interval.low < w(U_w) <
        interval.high`` (each bound possibly non-strict or absent)."""


def fresh_variable(query: JoinQuery, base: str) -> str:
    """Return a variable name starting with ``base`` that is unused in ``query``."""
    existing = query.variables
    if base not in existing:
        return base
    counter = 1
    # repro-analysis: allow RPR001 -- bounded by the query's variable count, no row work
    while f"{base}_{counter}" in existing:
        counter += 1
    return f"{base}_{counter}"
