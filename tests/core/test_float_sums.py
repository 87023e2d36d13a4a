"""Exact SUM over weights whose float sums round.

The SUM trim decides which answers lie below a bound from the copy-side
row's own partial weight and the group side's: ``own + w_S < bound``.  It
bisects the group's sorted weights on ``bound − own``, but float subtraction
does not undo addition (``0.4 − 0.1 > 0.3``), so every edge is settled on
``own + w_S`` itself.  Without that, every answer of the pivot's weight fell
below it, the equal-to part counted 0 and the loop stalled.

Exact SUM counts over the cover and reports each answer's own ``weight_of``
(README, "SUM by counting over the cover", states both decisions), so it
answers the two cases below.  The lossy trim of ``approx-pivot`` still
stalls on them: strict xfails.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import SolverError
from repro.ranking.sum import SumRanking

PHIS = [i / 20 for i in range(21)]
PATH = "R(a, b), S(b, c)"


def decimal_db(varied: bool) -> Database:
    """30 × 30 rows of one join value; ``varied`` spreads ``a`` and ``c``."""
    return Database(
        [
            Relation("R", ("a", "b"), [(0.1 * (i % 7 if varied else 1), 0.2) for i in range(30)]),
            Relation("S", ("b", "c"), [(0.2, 0.3 * (i % 5 if varied else 1)) for i in range(30)]),
        ]
    )


@pytest.mark.parametrize("varied", [False, True], ids=["constant", "varied"])
@pytest.mark.parametrize("ranking", ["sum(a, c)", "sum(a, b, c)"])
@pytest.mark.parametrize("strategy", ["exact-pivot", "approx-pivot"])
def test_decimal_sums_equal_materialize(strategy, ranking, varied):
    db = decimal_db(varied)
    knobs = {"epsilon": 0.1} if strategy == "approx-pivot" else {}
    oracle = Engine(db).prepare(PATH, ranking, strategy="materialize").quantiles(PHIS)
    for factor in (1, 12):
        prepared = Engine(db).prepare(
            PATH, ranking, strategy=strategy, termination_factor=factor, **knobs
        )
        got = prepared.quantiles(PHIS)
        assert [(r.weight, r.target_index) for r in got] == [
            (r.weight, r.target_index) for r in oracle
        ]


@pytest.mark.parametrize(
    "strategy",
    [
        "exact-pivot",
        pytest.param("approx-pivot", marks=pytest.mark.xfail(
            strict=True,
            raises=SolverError,
            reason="the lossy trim sums own_R + own_S, which rounds differently "
            "from weight_of's fold in ranking order (c + b + a)",
        )),
    ],
)
def test_reassociated_sum_equals_materialize(strategy):
    db = decimal_db(varied=False)
    knobs = {"epsilon": 0.1} if strategy == "approx-pivot" else {}
    expected = Engine(db).prepare(PATH, "sum(c, b, a)", strategy="materialize").median()
    got = Engine(db).prepare(PATH, "sum(c, b, a)", strategy=strategy, **knobs).median()
    assert got.weight == expected.weight


@pytest.mark.parametrize(
    "strategy",
    [
        "auto",
        pytest.param("approx-pivot", marks=pytest.mark.xfail(
            strict=True,
            raises=SolverError,
            reason="the lossy trim weighs the cover atom's 0, but the pivot's "
            "assignment carries T's 0.0, which the weight function tells apart",
        )),
    ],
)
def test_typed_weight_of_a_shared_variable_equals_materialize(strategy):
    db = Database(
        [
            Relation("R", ("x", "y"), [(0, i) for i in range(30)]),
            Relation("S", ("x", "z"), [(0, i) for i in range(30)]),
            Relation("T", ("x", "w"), [(0.0, 0)]),
        ]
    )
    query = "R(x, y), S(x, z), T(x, w)"

    def ranking():
        return SumRanking(["x"], {"x": lambda v: len(repr(v))})

    knobs = {"epsilon": 0.1} if strategy == "approx-pivot" else {}
    expected = Engine(db).prepare(query, ranking(), strategy="materialize").median()
    got = Engine(db).prepare(query, ranking(), strategy=strategy, **knobs).median()
    assert got.weight == expected.weight
