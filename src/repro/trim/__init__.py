"""Trimming of ranking inequalities from join queries (Sections 5 and 6)."""

from repro.exceptions import RankingError
from repro.ranking.base import RankingFunction
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.trim.base import TrimResult, Trimmer
from repro.trim.lex_trim import LexTrimmer
from repro.trim.minmax_trim import MinMaxTrimmer
from repro.trim.sum_adjacent_trim import SumAdjacentTrimmer


def exact_trimmer_for(ranking: RankingFunction) -> Trimmer:
    """The exact trimming construction for a ranking (the ``exact-pivot``
    dispatch of the serial engine and of every shard worker)."""
    if isinstance(ranking, (MinRanking, MaxRanking)):
        return MinMaxTrimmer(ranking)
    if isinstance(ranking, LexRanking):
        return LexTrimmer(ranking)
    if isinstance(ranking, SumRanking):
        return SumAdjacentTrimmer(ranking)
    raise RankingError(
        f"no exact trimming construction is known for {ranking.describe()}"
    )


__all__ = [
    "Trimmer",
    "TrimResult",
    "MinMaxTrimmer",
    "LexTrimmer",
    "SumAdjacentTrimmer",
    "exact_trimmer_for",
]
