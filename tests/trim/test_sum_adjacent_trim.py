"""Exact trimming of additive inequalities on adjacent join-tree nodes (Lemma 5.5)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import TrimmingError
from repro.joins.counting import count_answers
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import Comparison, RankPredicate, WeightInterval
from repro.ranking.minmax import MaxRanking
from repro.ranking.sum import SumRanking
from repro.trim.base import TrimResult, fresh_variable
from repro.trim.sum_adjacent_trim import SumAdjacentTrimmer


def three_path_instance(seed=0, rows=20, domain=6):
    rng = random.Random(seed)
    query = JoinQuery(
        [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")), Atom("R3", ("x3", "x4"))]
    )
    db = Database(
        [
            Relation("R1", ("a", "b"), [(rng.randrange(15), rng.randrange(domain)) for _ in range(rows)]),
            Relation("R2", ("a", "b"), [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)]),
            Relation("R3", ("a", "b"), [(rng.randrange(domain), rng.randrange(15)) for _ in range(rows)]),
        ]
    )
    return query, db


def weights_of(query, db, ranking):
    return sorted(ranking.weight_of(a) for a in query.answers_brute_force(db))


def expected_weights(query, db, ranking, interval=None, predicate=None):
    weights = (ranking.weight_of(a) for a in query.answers_brute_force(db))
    if interval is not None:
        return sorted(w for w in weights if interval.contains(w))
    return sorted(w for w in weights if predicate.holds(w))


class TestRejections:
    def test_requires_sum_ranking(self):
        with pytest.raises(TrimmingError):
            SumAdjacentTrimmer(MaxRanking(["x1"]))

    def test_unsupported_spread_raises(self):
        """Full SUM over a 3-path cannot be covered by two adjacent nodes."""
        query, db = three_path_instance()
        trimmer = SumAdjacentTrimmer(SumRanking(["x1", "x2", "x3", "x4"]))
        assert not trimmer.supports(query)
        with pytest.raises(TrimmingError):
            trimmer.trim(query, db, RankPredicate(Comparison.LT, 10))

    def test_supports_partial_sum(self):
        query, _ = three_path_instance()
        assert SumAdjacentTrimmer(SumRanking(["x1", "x2", "x3"])).supports(query)


class TestSingleNodeCover:
    def test_filter_only_that_relation(self):
        query, db = three_path_instance(seed=1)
        ranking = SumRanking(["x1", "x2"])  # both in R1
        trimmer = SumAdjacentTrimmer(ranking)
        predicate = RankPredicate(Comparison.LT, 9)
        result = trimmer.trim(query, db, predicate)
        assert not result.helper_variables
        assert weights_of(result.query, result.database, ranking) == expected_weights(
            query, db, ranking, predicate=predicate
        )

    @pytest.mark.parametrize("comparison", list(Comparison))
    def test_all_comparisons(self, comparison):
        query, db = three_path_instance(seed=2)
        ranking = SumRanking(["x3", "x4"])  # both in R3
        trimmer = SumAdjacentTrimmer(ranking)
        predicate = RankPredicate(comparison, 12)
        result = trimmer.trim(query, db, predicate)
        assert weights_of(result.query, result.database, ranking) == expected_weights(
            query, db, ranking, predicate=predicate
        )


class TestAdjacentPairCover:
    @pytest.mark.parametrize("comparison", list(Comparison))
    def test_all_comparisons_exact(self, comparison):
        query, db = three_path_instance(seed=3)
        ranking = SumRanking(["x1", "x2", "x3"])  # spans R1 and R2 (adjacent)
        trimmer = SumAdjacentTrimmer(ranking)
        predicate = RankPredicate(comparison, 14)
        result = trimmer.trim(query, db, predicate)
        assert weights_of(result.query, result.database, ranking) == expected_weights(
            query, db, ranking, predicate=predicate
        )

    def test_helper_variable_on_both_atoms_only(self):
        query, db = three_path_instance(seed=4)
        ranking = SumRanking(["x1", "x2", "x3"])
        result = SumAdjacentTrimmer(ranking).trim(
            query, db, RankPredicate(Comparison.LT, 14)
        )
        assert len(result.helper_variables) == 1
        helper = next(iter(result.helper_variables))
        holders = [i for i, atom in enumerate(result.query) if helper in atom.variable_set]
        assert len(holders) == 2
        assert result.query.is_acyclic

    def test_interval_single_pass(self):
        query, db = three_path_instance(seed=5)
        ranking = SumRanking(["x1", "x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        interval = WeightInterval(low=8, high=20)
        result = trimmer.trim_interval(query, db, interval)
        assert weights_of(result.query, result.database, ranking) == expected_weights(
            query, db, ranking, interval=interval
        )

    def test_interval_composition_agrees_with_single_pass(self):
        query, db = three_path_instance(seed=6)
        ranking = SumRanking(["x1", "x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        interval = WeightInterval(low=8, high=20)
        single = trimmer.trim_interval(query, db, interval)
        composed = super(SumAdjacentTrimmer, trimmer).trim_interval(query, db, interval)
        assert weights_of(single.query, single.database, ranking) == weights_of(
            composed.query, composed.database, ranking
        )

    def test_output_size_is_quasilinear(self):
        """The rewritten relations grow by at most a logarithmic factor."""
        import math

        query, db = three_path_instance(seed=7, rows=200, domain=10)
        ranking = SumRanking(["x1", "x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        result = trimmer.trim(query, db, RankPredicate(Comparison.LT, 15))
        bound = db.size * (2 * math.log2(db.size) + 2)
        assert result.database.size <= bound

    def test_counting_on_trimmed_instance(self):
        query, db = three_path_instance(seed=8)
        ranking = SumRanking(["x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        predicate = RankPredicate(Comparison.GT, 5)
        result = trimmer.trim(query, db, predicate)
        expected = len(expected_weights(query, db, ranking, predicate=predicate))
        assert count_answers(result.query, result.database) == expected

    def test_unbounded_interval_is_identity(self):
        query, db = three_path_instance(seed=9)
        ranking = SumRanking(["x1", "x2"])
        trimmer = SumAdjacentTrimmer(ranking)
        result = trimmer.trim_interval(query, db, WeightInterval())
        assert count_answers(result.query, result.database) == count_answers(query, db)

    def test_social_network_shape(self):
        """The introduction's query: SUM(l2, l3) over Share and Attend."""
        rng = random.Random(10)
        query = JoinQuery(
            [
                Atom("Admin", ("u1", "e")),
                Atom("Share", ("u2", "e", "l2")),
                Atom("Attend", ("u3", "e", "l3")),
            ]
        )
        db = Database(
            [
                Relation("Admin", ("u", "e"), [(rng.randrange(5), rng.randrange(4)) for _ in range(15)]),
                Relation("Share", ("u", "e", "l"), [(rng.randrange(5), rng.randrange(4), rng.randrange(30)) for _ in range(15)]),
                Relation("Attend", ("u", "e", "l"), [(rng.randrange(5), rng.randrange(4), rng.randrange(30)) for _ in range(15)]),
            ]
        )
        ranking = SumRanking(["l2", "l3"])
        trimmer = SumAdjacentTrimmer(ranking)
        predicate = RankPredicate(Comparison.LT, 30)
        result = trimmer.trim(query, db, predicate)
        assert weights_of(result.query, result.database, ranking) == expected_weights(
            query, db, ranking, predicate=predicate
        )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    threshold=st.integers(min_value=0, max_value=30),
    low=st.integers(min_value=-5, max_value=25),
)
def test_interval_trim_property_random(seed, threshold, low):
    """Random 3-path instances: the interval trim keeps exactly the answers
    whose partial sum lies in the interval (weight multisets coincide)."""
    query, db = three_path_instance(seed=seed, rows=10, domain=4)
    ranking = SumRanking(["x1", "x2", "x3"])
    trimmer = SumAdjacentTrimmer(ranking)
    interval = WeightInterval(low=low, high=threshold)
    result = trimmer.trim_interval(query, db, interval)
    assert weights_of(result.query, result.database, ranking) == expected_weights(
        query, db, ranking, interval=interval
    )


class TestHelpers:
    def test_fresh_variable_avoids_collisions(self):
        query = JoinQuery([Atom("R", ("v", "v_1"))])
        assert fresh_variable(query, "v") == "v_2"
        assert fresh_variable(query, "w") == "w"

    def test_trim_result_merge(self):
        query, db = three_path_instance()
        first = TrimResult(query, db, helper_variables={"a"})
        second = TrimResult(query, db, helper_variables={"b"}, lossy=True)
        merged = first.merged_with(second)
        assert merged.helper_variables == {"a", "b"}
        assert merged.lossy
