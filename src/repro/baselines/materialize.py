"""The direct baseline: materialize the join, sort, and pick the position.

This is the strategy the introduction of the paper describes as the "direct
way" — compute ``Q(D)``, sort it by the ranking function, and read off the
answer at position ``⌈φ·|Q(D)|⌉``.  Its cost is dominated by the number of
query answers, which can be polynomially larger than the database; the whole
point of the paper is to avoid it.  We keep it both as a correctness oracle
for tests and as the baseline that the benchmark experiments compare against.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import Any

from repro.data.database import Database
from repro.exceptions import CyclicQueryError, SolverError
from repro.core.quantile import PivotStep, resolve_target
from repro.core.result import QuantileResult
from repro.joins.yannakakis import evaluate
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.ranking.base import RankingFunction, nan_answer_error

Assignment = dict[str, Any]


def _materialize_answers(query: JoinQuery, db: Database) -> list[Assignment]:
    """All query answers: Yannakakis for acyclic queries, nested loops otherwise.

    The baseline intentionally works for cyclic queries too (the pivoting
    algorithms do not), so that it can serve as a fallback strategy.
    """
    try:
        return evaluate(query, db)
    except CyclicQueryError:
        return query.answers_brute_force(db)


def _weights(answers: list[Assignment], ranking: RankingFunction) -> list[Any]:
    """Each answer's weight; a NaN one (a SUM of +inf and -inf) raises."""
    weights = list(map(ranking.weight_of, answers))
    if any(weight != weight for weight in weights):
        raise nan_answer_error(ranking)
    return weights


def answer_weights(
    query: JoinQuery, db: Database, ranking: RankingFunction
) -> list[Any]:
    """Materialize all answers and return their weights, sorted ascending."""
    return sorted(_weights(_materialize_answers(query, db), ranking))


def sorted_answers(
    query: JoinQuery, db: Database, ranking: RankingFunction
) -> list[Assignment]:
    """Materialize all answers, sorted ascending by their ranking weight.

    The prepared-query engine holds it in a :class:`MaterializedAnswers`,
    so repeated ``materialize`` calls pay the join once.
    """
    ranking.validate_for(query.variables)
    answers = _materialize_answers(query, db)
    weights = _weights(answers, ranking)
    return [answers[i] for i in sorted(range(len(answers)), key=weights.__getitem__)]


class MaterializedAnswers:
    """The ``materialize`` source: Algorithm 1 with zero pivot steps over
    every answer of the original (possibly cyclic) query, sorted once.  Its
    root is itself, the terminal, and its ``size`` its answer count, so the
    loop never steps it and the answer cache replays it."""

    strategy = "materialize"

    def __init__(self, query: JoinQuery, db: Database, ranking: RankingFunction) -> None:
        self.query, self.db, self.ranking = query, db, ranking
        self.answers = sorted_answers(query, db, ranking)
        self.total = self.size = len(self.answers)
        self.root = self

    def __len__(self) -> int:
        return self.total

    def step(self, interval: WeightInterval, handle: "MaterializedAnswers") -> PivotStep:
        raise SolverError("materialized answers are never pivoted")

    def terminal(
        self, interval: WeightInterval, handle: "MaterializedAnswers", keep: Collection[str]
    ) -> "MaterializedAnswers":
        return self

    def select(self, position: int) -> tuple[Any, Assignment]:
        answer = self.answers[position]
        return self.ranking.weight_of(answer), dict(answer)

    def estimated_bytes(self) -> int:
        return len(self.answers) * (len(self.query.variables) + 1) * 16


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
