"""Every guardrail-bearing stage reaches the checkpoints it is documented to.

Budgets, cancellation and fault injection are cooperative: a stage that
stops calling ``checkpoint(name, rows=...)`` keeps returning right answers,
so no oracle test notices.  Each case below runs one small fixed instance
through one stage and pins the checkpoint *names* that stage must hit (under
an empty ``FaultPlan``, which counts them) and, where the call site charges
rows, that a recording ``ExecutionContext`` was charged some.

What this cannot see is one of several sites sharing a name going dark
(``parallel.plan`` x3, ``parallel.merge`` x2): those stay with RPR001
(``tests/analysis/test_self_check.py``) where the rule can see them, but
for the terminal's ``parallel.merge``, which guards no loop and is the one
that charges rows inline.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.joins.direct_access import DirectAccess
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MinRanking
from repro.ranking.sum import SumRanking
from repro.runtime import ExecutionContext
from repro.testing import FaultPlan, inject_faults

pytestmark = pytest.mark.faults

PHIS = [0.1, 0.5, 0.9]

#: Call sites that declare an interruption point without charging rows.
NO_ROW_CHARGE = {
    "direct_access.expand",
    "yannakakis.decode",
    "cover.decode",
}


class RowLedger(ExecutionContext):
    """An unbounded context that remembers the rows charged per name."""

    __slots__ = ("rows_by_name",)

    def __init__(self) -> None:
        super().__init__()
        self.rows_by_name: Counter[str] = Counter()

    def checkpoint(self, name: str, rows: int = 0) -> None:
        self.rows_by_name[name] += rows
        super().checkpoint(name, rows)


def batch(query, db, ranking, termination_factor=1, **knobs):
    """A φ-batch at Algorithm 1's own ``|D|`` cut, so these fixtures pivot."""
    prepared = PreparedQuery(
        query, db, ranking, termination_factor=termination_factor, **knobs
    )
    try:
        prepared.quantiles(PHIS)
    finally:
        prepared.close()


def sampling_stage(query, db):
    batch(query, db, SumRanking(["x1", "x2", "x3", "x4"]),
          strategy="sampling", epsilon=0.2, seed=1)
    # Iteration over the direct-access structure has no product caller.
    assert sum(1 for _ in DirectAccess(query, db)) > 0


def cyclic_materialize_stage(query, db):
    triangle = JoinQuery(
        [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
    )
    triangle_db = Database(
        [
            Relation("R", ("a", "b"), [(1, 2), (5, 6)]),
            Relation("S", ("a", "b"), [(2, 3)]),
            Relation("T", ("a", "b"), [(3, 1)]),
        ]
    )
    batch(triangle, triangle_db, SumRanking(["x", "y", "z"]), strategy="materialize")


BISECTION = {"bisection.groups", "bisection.count", "bisection.witness"}

STAGES = {
    # Weight bisection: the row weights, each node's sorted groups, one
    # count per probe (charged the groups it bisects and the rows above
    # them), and per tie block answered a top-down walk of the two counts'
    # frontier sums (charged the kept rows it scans).
    "min": (
        lambda q, db: batch(q, db, MinRanking(["x1", "x4"])),
        BISECTION | {"bisection.weights"},
    ),
    # The same per position: each LEX variable's row keys, one count per
    # probe of a block, one decode per full-weight tie block.
    "lex": (
        lambda q, db: batch(q, db, LexRanking(["x1", "x4"])),
        BISECTION | {"bisection.weights"},
    ),
    # Exact SUM, one covering atom: bisection over its row sums.
    "sum, one atom": (
        lambda q, db: batch(q, db, SumRanking(["x1", "x2"])),
        BISECTION | {"cover.row_sums"},
    ),
    # Exact SUM over a cover pair: the row sums, one pass over R1 per step
    # and terminal (charged its rows), the terminal's pairs, a decode per pair.
    "sum, cover pair": (
        lambda q, db: batch(q, db, SumRanking(["x1", "x2", "x3"])),
        {"cover.row_sums", "cover.ranges", "cover.terminal", "cover.decode"},
    ),
    "terminal, leaf deferred": (
        # approx-pivot's sorted terminal, above the |D| cut: every φ ends in
        # one, R1 x R2 is expanded and charged per level, R3 decoded per
        # deferred node.
        lambda q, db: batch(
            q, db, SumRanking(["x1", "x2", "x3"]), termination_factor=4,
            strategy="approx-pivot", epsilon=0.2,
        ),
        {"yannakakis.answer", "yannakakis.decode"},
    ),
    "sampling": (
        sampling_stage,
        {
            "sampling.sample",
            "direct_access.build",
            "direct_access.iter",
            "direct_access.expand",
        },
    ),
    "materialize, cyclic": (cyclic_materialize_stage, {"materialize.brute_force"}),
    "parallel=2, inline": (
        # The terminal merge is the ``parallel.merge`` that charges rows inline;
        # at factor 1 every φ of this fixture ends on a pivot's own weight.
        lambda q, db: batch(
            q, db, SumRanking(["x1", "x2", "x3"]), termination_factor=4, parallel=2
        ),
        {"parallel.init", "parallel.plan", "parallel.merge"},
    ),
    "approx-pivot": (
        lambda q, db: batch(q, db, SumRanking(["x1", "x2", "x3", "x4"]),
                            strategy="approx-pivot", epsilon=0.2),
        {"trim.lossy_scan", "trim.lossy_absorb", "trim.lossy_embed"},
    ),
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_reaches_its_checkpoints(stage, three_path, inline_mode):
    run_stage, names = STAGES[stage]
    query, db = three_path
    with RowLedger() as ledger, inject_faults(FaultPlan()) as plan:
        run_stage(query, db)
    assert {name for name in names if plan.seen[name] < 1} == set()
    uncharged = {n for n in names - NO_ROW_CHARGE if ledger.rows_by_name[n] < 1}
    assert uncharged == set()
