"""Tests for the generic pivot selection algorithm (Algorithm 2, Section 4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import EmptyResultError
from repro.pivot.pivot_selection import select_pivot
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking

from tests.conftest import brute_force_weights


def assert_c_pivot(query, db, ranking, pivot):
    """Check Definition 3.1 directly against the brute-force answer list."""
    assert query.satisfies(pivot.assignment, db)
    weights = brute_force_weights(query, db, ranking)
    total = len(weights)
    assert pivot.total_answers == total
    below = sum(1 for w in weights if w <= pivot.weight)
    above = sum(1 for w in weights if w >= pivot.weight)
    assert below >= pivot.c * total - 1e-9
    assert above >= pivot.c * total - 1e-9
    assert 0 < pivot.c <= 0.5


def test_paper_figure2(figure1_query, figure1_db):
    """Figure 2: under full SUM, the pivot computed for the R-tuple (1,1) side
    leads to the overall pivot x1=1, x2=1, x3=4, x4=6, x5=8 (weight 20)."""
    ranking = SumRanking(["x1", "x2", "x3", "x4", "x5"])
    pivot = select_pivot(figure1_query, figure1_db, ranking)
    assert figure1_query.satisfies(pivot.assignment, figure1_db)
    assert pivot.total_answers == 13
    # The weighted-median chain of Figure 2 produces the answer with sum 20.
    assert pivot.assignment == {"x1": 1, "x2": 1, "x3": 4, "x4": 6, "x5": 8}
    assert pivot.weight == 20.0
    assert_c_pivot(figure1_query, figure1_db, ranking, pivot)


def test_single_relation_median():
    query = JoinQuery([Atom("R", ("x",))])
    db = Database([Relation("R", ("x",), [(v,) for v in (5, 1, 9, 3, 7)])])
    pivot = select_pivot(query, db, SumRanking(["x"]))
    assert pivot.weight == 5.0  # the true median
    assert pivot.c == 0.5


def test_empty_result_raises(figure1_query, figure1_db):
    db = Database([Relation(r.name, r.schema, []) if r.name == "U" else r for r in figure1_db])
    with pytest.raises(EmptyResultError):
        select_pivot(figure1_query, db, SumRanking(["x1"]))


def test_pivot_validity_all_rankings(three_path):
    query, db = three_path
    rankings = [
        SumRanking(["x1", "x2", "x3", "x4"]),
        SumRanking(["x1", "x2"]),
        MinRanking(["x1", "x4"]),
        MaxRanking(["x1", "x4"]),
        LexRanking(["x4", "x1"]),
    ]
    for ranking in rankings:
        pivot = select_pivot(query, db, ranking)
        assert_c_pivot(query, db, ranking, pivot)


def test_dangling_tuples_never_become_pivots():
    query = JoinQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    db = Database(
        [
            # (0, 99) dangles: there is no S-tuple with y=99.
            Relation("R", ("a", "b"), [(0, 99), (5, 1), (6, 1)]),
            Relation("S", ("a", "b"), [(1, 2), (1, 3)]),
        ]
    )
    pivot = select_pivot(query, db, SumRanking(["x", "y", "z"]))
    assert pivot.assignment["y"] == 1
    assert query.satisfies(pivot.assignment, db)


def test_guaranteed_c_depends_only_on_query_shape():
    rng = random.Random(0)
    query = JoinQuery([Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3"))])
    cs = []
    for size in (10, 40, 160):
        db = Database(
            [
                Relation("R1", ("x1", "x2"),
                         [(rng.randrange(50), rng.randrange(5)) for _ in range(size)]),
                Relation("R2", ("x2", "x3"),
                         [(rng.randrange(5), rng.randrange(50)) for _ in range(size)]),
            ]
        )
        cs.append(select_pivot(query, db, SumRanking(["x1", "x3"])).c)
    assert len(set(cs)) == 1  # independent of the data size


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.integers(min_value=1, max_value=12),
    domain=st.integers(min_value=1, max_value=4),
)
def test_c_pivot_property_on_random_paths(seed, rows, domain):
    """On random 3-path instances the returned pivot always satisfies
    Definition 3.1 with the returned c."""
    rng = random.Random(seed)
    query = JoinQuery(
        [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")), Atom("R3", ("x3", "x4"))]
    )
    db = Database(
        [
            Relation(
                f"R{i}", (f"x{i}", f"x{i+1}"),
                [(rng.randrange(domain * 10), rng.randrange(domain)) if i < 3
                 else (rng.randrange(domain), rng.randrange(domain * 10))
                 for _ in range(rows)],
            )
            for i in (1, 2, 3)
        ]
    )
    ranking = SumRanking(["x1", "x2", "x3", "x4"])
    try:
        pivot = select_pivot(query, db, ranking)
    except EmptyResultError:
        assert len(query.answers_brute_force(db)) == 0
        return
    assert_c_pivot(query, db, ranking, pivot)
