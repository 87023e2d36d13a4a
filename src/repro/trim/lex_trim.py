"""Exact trimming for lexicographic orders (Lemma 5.4).

A lexicographic inequality ``(x1, ..., xr) <LEX λ`` decomposes into ``r``
disjoint partitions: in partition ``i`` the first ``i−1`` keys equal the
corresponding components of ``λ`` and the ``i``-th key is strictly smaller.
Each partition is a conjunction of bounds on single variables' keys ("equals
c" is the interval ``[c, c]``) — runs of the relations' memoized key orders
(:mod:`repro.trim.filters`) — so the union-of-copies construction of
Algorithm 3 applies unchanged; the trimming is linear and preserves
acyclicity, recovering the known LEX tractability up to a log factor
(Section 5.2).  A two-sided region composes the two single-inequality trims.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.data.database import Database
from repro.exceptions import TrimmingError
from repro.query.join_query import JoinQuery
from repro.query.predicates import RankPredicate, WeightInterval
from repro.ranking.lex import LexRanking
from repro.trim.base import TrimResult, Trimmer
from repro.trim.filters import union_partitions


class LexTrimmer(Trimmer):
    """Trimming construction for :class:`LexRanking`."""

    def __init__(self, ranking: LexRanking) -> None:
        if not isinstance(ranking, LexRanking):
            raise TrimmingError(
                f"LexTrimmer requires a LEX ranking function, got {ranking.describe()}"
            )
        super().__init__(ranking)

    # ------------------------------------------------------------------ #
    def trim(
        self, query: JoinQuery, db: Database, predicate: RankPredicate
    ) -> TrimResult:
        ranking: LexRanking = self.ranking  # type: ignore[assignment]
        variables = [
            v for v in ranking.weighted_variables if v in query.variables
        ]
        if len(variables) != len(ranking.weighted_variables):
            raise TrimmingError(
                "all LEX variables must occur in the query to trim a "
                "lexicographic inequality"
            )
        threshold = self._as_tuple(predicate.threshold, len(variables))
        upper = predicate.comparison.is_upper_bound
        equal = {
            variable: WeightInterval(component, component, False, False)
            for variable, component in zip(variables, threshold)
        }
        # Partition i: the keys before position i equal the threshold's, key i
        # is strictly on the predicate's side of it.  Ordinary bounds are
        # exact for ±inf components too (they occur when the data holds them).
        partitions = [
            {
                **{prior: equal[prior] for prior in variables[:index]},
                variable: (
                    WeightInterval(high=component) if upper else WeightInterval(low=component)
                ),
            }
            for index, (variable, component) in enumerate(zip(variables, threshold))
        ]
        if not predicate.comparison.is_strict:
            # One extra partition for exact equality on every component.
            partitions.append(equal)
        return union_partitions(
            query, db, partitions, ranking.key_of, partition_base_name="lex"
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_tuple(threshold: object, arity: int) -> Sequence[float]:
        if not isinstance(threshold, (tuple, list)) or len(threshold) != arity:
            raise TrimmingError(
                f"LEX threshold must be a tuple of {arity} components, got {threshold!r}"
            )
        return tuple(float(component) for component in threshold)
