"""The direct baseline: materialize the join, sort, and pick the position.

This is the strategy the introduction of the paper describes as the "direct
way" — compute ``Q(D)``, sort it by the ranking function, and read off the
answer at position ``⌈φ·|Q(D)|⌉``.  Its cost is dominated by the number of
query answers, which can be polynomially larger than the database; the whole
point of the paper is to avoid it.  We keep it both as a correctness oracle
for tests and as the baseline that the benchmark experiments compare against.
"""

from __future__ import annotations

from typing import Any

from repro.data.database import Database
from repro.exceptions import CyclicQueryError
from repro.core.quantile import resolve_target
from repro.core.result import QuantileResult
from repro.joins.yannakakis import evaluate
from repro.query.join_query import JoinQuery
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint

Assignment = dict[str, Any]


def _materialize_answers(query: JoinQuery, db: Database) -> list[Assignment]:
    """All query answers: Yannakakis for acyclic queries, nested loops otherwise.

    The baseline intentionally works for cyclic queries too (the pivoting
    algorithms do not), so that it can serve as a fallback strategy.
    """
    try:
        return evaluate(query, db)
    except CyclicQueryError:
        checkpoint("materialize.brute_force")
        return query.answers_brute_force(db)


def answer_weights(
    query: JoinQuery, db: Database, ranking: RankingFunction
) -> list[Any]:
    """Materialize all answers and return their weights, sorted ascending."""
    answers = _materialize_answers(query, db)
    weights = [ranking.weight_of(answer) for answer in answers]
    weights.sort()
    return weights


def sorted_answers(
    query: JoinQuery, db: Database, ranking: RankingFunction
) -> list[Assignment]:
    """Materialize all answers, sorted ascending by their ranking weight.

    The prepared-query engine caches this list so that repeated quantile
    calls under the ``materialize`` strategy pay the join once.
    """
    ranking.validate_for(query.variables)
    answers = _materialize_answers(query, db)
    answers.sort(key=ranking.weight_of)
    return answers


def select_from_sorted(
    answers: list[Assignment],
    ranking: RankingFunction,
    phi: float | None = None,
    index: int | None = None,
) -> QuantileResult:
    """Pick the requested position from an already weight-sorted answer list.

    Shared by the one-shot baseline below and the prepared-query engine
    (which caches the sorted list across calls).  Exactly one of ``phi`` and
    ``index`` must be given.
    """
    total = len(answers)
    target = resolve_target(phi, index, total)
    chosen = answers[target]
    return QuantileResult(
        assignment=dict(chosen),
        weight=ranking.weight_of(chosen),
        target_index=target,
        total_answers=total,
        strategy="materialize",
        exact=True,
    )


def materialize_quantile(
    query: JoinQuery,
    db: Database,
    ranking: RankingFunction,
    phi: float | None = None,
    index: int | None = None,
) -> QuantileResult:
    """Compute the exact quantile by full materialization (baseline).

    Exactly one of ``phi`` and ``index`` must be given.
    """
    return select_from_sorted(
        sorted_answers(query, db, ranking), ranking, phi=phi, index=index,
    )
