"""Exact trimming for MIN and MAX rankings (Lemma 5.2, Algorithm 3).

For a MAX ranking, ``max < λ`` holds when every weighted variable's weight is
below ``λ``; ``max > λ`` is a union of ``r`` disjoint partitions, the ``i``-th
requiring the first ``i−1`` weighted variables to be ``≤ λ`` and the ``i``-th
to be ``> λ`` (Example 5.1 / Figure 3).  MIN is symmetric.  Every condition
is a bound on one variable's weight — a run of the relation's memoized weight
order (:mod:`repro.trim.filters`) — so a two-sided candidate region is one
pass over the base relations: the every-variable bound is met into each
partition of the other side.  The trim runs in linear time and returns an
acyclic query, which yields Theorem 5.3.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.exceptions import TrimmingError
from repro.query.join_query import JoinQuery
from repro.query.predicates import RankPredicate, WeightInterval
from repro.ranking.base import RankingFunction
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.trim.base import TrimResult, Trimmer
from repro.trim.filters import filter_variables, union_partitions


class MinMaxTrimmer(Trimmer):
    """Trimming construction for :class:`MinRanking` and :class:`MaxRanking`."""

    def __init__(self, ranking: RankingFunction) -> None:
        if not isinstance(ranking, (MinRanking, MaxRanking)):
            raise TrimmingError(
                "MinMaxTrimmer requires a MIN or MAX ranking function, got "
                f"{ranking.describe()}"
            )
        super().__init__(ranking)

    # ------------------------------------------------------------------ #
    def trim(
        self, query: JoinQuery, db: Database, predicate: RankPredicate
    ) -> TrimResult:
        return self.trim_interval(query, db, predicate.interval())

    def trim_interval(
        self, query: JoinQuery, db: Database, interval: WeightInterval
    ) -> TrimResult:
        """Trim ``low < w(U_w) < high`` in one pass over ``db``.

        Relation for relation and row for row what composing the two
        single-inequality trims gives: the partitions of the *some variable*
        side (``max > low`` / ``min < high``), each met with the *every
        variable* bound of the other side (``max < high`` / ``min > low``).
        """
        if interval.is_unbounded:
            return TrimResult(query, db)
        weighted = [
            v for v in self.ranking.weighted_variables if v in query.variables
        ]
        if not weighted:
            raise TrimmingError(
                "none of the weighted variables occur in the query; cannot trim"
            )
        weight = self.ranking.variable_weight
        low, low_strict = interval.low, interval.low_strict
        high, high_strict = interval.high, interval.high_strict
        if isinstance(self.ranking, MaxRanking):
            every = WeightInterval(high=high, high_strict=high_strict)
            some = low
            # Variables before the witness fail its bound (Algorithm 3).
            earlier = WeightInterval(high=low, high_strict=not low_strict)
        else:
            every = WeightInterval(low=low, low_strict=low_strict)
            some = high
            earlier = WeightInterval(low=high, low_strict=not high_strict)
        if some is None:
            new_query, new_db = filter_variables(
                query, db, dict.fromkeys(weighted, every), weight
            )
            return TrimResult(new_query, new_db)
        earlier = earlier.meet(every)
        # Partition i: variable i is the witness (inside the interval itself),
        # the ones before it are not, the ones after it only obey ``every``.
        partitions = [
            {
                **dict.fromkeys(weighted[:index], earlier),
                variable: interval,
                **dict.fromkeys(weighted[index + 1:], every),
            }
            for index, variable in enumerate(weighted)
        ]
        return union_partitions(query, db, partitions, weight, partition_base_name="mm")
