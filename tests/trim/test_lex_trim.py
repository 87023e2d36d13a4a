"""Exact trimming for lexicographic orders (Lemma 5.4)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine
from repro.exceptions import TrimmingError
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import Comparison, RankPredicate, WeightInterval
from repro.ranking.lex import LexRanking
from repro.ranking.sum import SumRanking
from repro.trim.lex_trim import LexTrimmer


def make_instance(seed=0, rows=20, domain=5):
    rng = random.Random(seed)
    query = JoinQuery([Atom("R", ("x1", "x2")), Atom("S", ("x2", "x3"))])
    db = Database(
        [
            Relation("R", ("a", "b"), [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)]),
            Relation("S", ("a", "b"), [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)]),
        ]
    )
    return query, db


def weights_of(query, db, ranking):
    return sorted(ranking.weight_of(a) for a in query.answers_brute_force(db))


def satisfying_weights(query, db, ranking, predicate):
    return sorted(
        w for w in (ranking.weight_of(a) for a in query.answers_brute_force(db))
        if predicate.holds(w)
    )


class TestLexTrimmer:
    def test_requires_lex_ranking(self):
        with pytest.raises(TrimmingError):
            LexTrimmer(SumRanking(["x1"]))

    def test_threshold_must_match_arity(self):
        query, db = make_instance()
        trimmer = LexTrimmer(LexRanking(["x1", "x3"]))
        with pytest.raises(TrimmingError):
            trimmer.trim(query, db, RankPredicate(Comparison.LT, (1.0,)))

    def test_all_variables_must_occur(self):
        query, db = make_instance()
        trimmer = LexTrimmer(LexRanking(["x1", "missing"]))
        with pytest.raises(TrimmingError):
            trimmer.trim(query, db, RankPredicate(Comparison.LT, (1.0, 1.0)))

    @pytest.mark.parametrize("comparison", list(Comparison))
    def test_exactness_all_comparisons(self, comparison):
        query, db = make_instance(seed=2)
        ranking = LexRanking(["x1", "x3"])
        trimmer = LexTrimmer(ranking)
        predicate = RankPredicate(comparison, (2.0, 3.0))
        result = trimmer.trim(query, db, predicate)
        assert weights_of(result.query, result.database, ranking) == satisfying_weights(
            query, db, ranking, predicate
        )
        assert result.query.is_acyclic

    def test_infinite_upper_threshold_keeps_everything(self):
        query, db = make_instance(seed=3)
        ranking = LexRanking(["x1", "x3"])
        trimmer = LexTrimmer(ranking)
        predicate = RankPredicate(Comparison.LT, (math.inf, math.inf))
        result = trimmer.trim(query, db, predicate)
        assert weights_of(result.query, result.database, ranking) == weights_of(
            query, db, ranking
        )

    def test_interval(self):
        query, db = make_instance(seed=4)
        ranking = LexRanking(["x1", "x3"])
        trimmer = LexTrimmer(ranking)
        interval = WeightInterval(low=(1.0, 2.0), high=(3.0, 1.0))
        result = trimmer.trim_interval(query, db, interval)
        expected = sorted(
            w for w in (ranking.weight_of(a) for a in query.answers_brute_force(db))
            if interval.contains(w)
        )
        assert weights_of(result.query, result.database, ranking) == expected

    def test_three_level_lex(self):
        query, db = make_instance(seed=5)
        ranking = LexRanking(["x2", "x1", "x3"])
        trimmer = LexTrimmer(ranking)
        predicate = RankPredicate(Comparison.GT, (2.0, 2.0, 2.0))
        result = trimmer.trim(query, db, predicate)
        assert weights_of(result.query, result.database, ranking) == satisfying_weights(
            query, db, ranking, predicate
        )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    threshold=st.tuples(
        st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
    ),
    upper=st.booleans(),
)
def test_lex_trim_property_random(seed, threshold, upper):
    query, db = make_instance(seed=seed, rows=12, domain=4)
    ranking = LexRanking(["x3", "x1"])
    trimmer = LexTrimmer(ranking)
    comparison = Comparison.LT if upper else Comparison.GT
    predicate = RankPredicate(comparison, tuple(float(t) for t in threshold))
    result = trimmer.trim(query, db, predicate)
    assert weights_of(result.query, result.database, ranking) == satisfying_weights(
        query, db, ranking, predicate
    )


# ---------------------------------------------------------------------- #
# ±inf in the data (not a sentinel: unbounded is ``WeightInterval``'s None)
# ---------------------------------------------------------------------- #
def test_infinite_threshold_component_is_an_ordinary_bound():
    """``lex < (inf, 3)`` drops the rows equal to or above it: a ±inf
    component arises only from a pivot whose data holds it."""
    query = JoinQuery([Atom("R", ("x1", "x2"))])
    db = Database(
        [Relation("R", ("a", "b"), [(math.inf, 2), (math.inf, 3), (math.inf, 5), (1, 9)])]
    )
    ranking = LexRanking(["x1", "x2"])
    for comparison, kept in [
        (Comparison.LT, [(1.0, 9.0), (math.inf, 2.0)]),
        (Comparison.LE, [(1.0, 9.0), (math.inf, 2.0), (math.inf, 3.0)]),
    ]:
        result = LexTrimmer(ranking).trim(
            query, db, RankPredicate(comparison, (math.inf, 3.0))
        )
        assert weights_of(result.query, result.database, ranking) == kept


@pytest.mark.parametrize("ranking_spec", ["lex(x1, x2)", "lex(x2, x1, x3)"])
@pytest.mark.parametrize("infinity", [float("-inf"), float("inf")])
def test_every_selection_over_infinite_values_equals_the_oracle(ranking_spec, infinity):
    """Regression: the trimmer read a ±inf threshold component as "unbounded
    from here on" and kept every remaining row, so with ±inf in the data 23
    (and 106) of these 330 selections returned a wrong weight and 45 raised
    ``SolverError("pivoting did not converge")``."""
    values = [0, 0.0, -0.0, True, 1, 2, 2.0, -1.5, 0.5, 2**63 + 11, infinity]
    db = Database(
        [
            Relation(f"R{arm}", ("x0", f"x{arm}"),
                     [((i + arm) % 2, value) for i, value in enumerate(values)])
            for arm in (1, 2, 3)
        ]
    )
    query = "R1(x0, x1), R2(x0, x2), R3(x0, x3)"
    oracle = Engine(db).prepare(query, ranking_spec, strategy="materialize")
    pivoting = Engine(db).prepare(query, ranking_spec, termination_factor=1)
    assert pivoting.count() == 330
    assert [pivoting.selection(i).weight for i in range(330)] == [
        oracle.selection(i).weight for i in range(330)
    ]
