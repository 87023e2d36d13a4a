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
from repro.query.predicates import WeightInterval
from repro.ranking.minmax import MaxRanking
from repro.ranking.sum import SumRanking
from repro.trim.base import Trimmer, fresh_variable
from repro.trim.sum_adjacent_trim import SumAdjacentTrimmer
from tests.conftest import COMPARISONS, one_sided


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


def expected_weights(query, db, ranking, interval):
    weights = (ranking.weight_of(a) for a in query.answers_brute_force(db))
    return sorted(w for w in weights if interval.contains(w))


class TestRejections:
    def test_requires_sum_ranking(self):
        with pytest.raises(TrimmingError):
            SumAdjacentTrimmer(MaxRanking(["x1"]))

    def test_unsupported_spread_raises(self):
        """Full SUM over a 3-path cannot be covered by two adjacent nodes."""
        query, db = three_path_instance()
        trimmer = SumAdjacentTrimmer(SumRanking(["x1", "x2", "x3", "x4"]))
        with pytest.raises(TrimmingError):
            trimmer.trim_interval(query, db, WeightInterval(high=10))


class TestSingleNodeCover:
    def test_filter_only_that_relation(self):
        query, db = three_path_instance(seed=1)
        ranking = SumRanking(["x1", "x2"])  # both in R1
        trimmer = SumAdjacentTrimmer(ranking)
        interval = WeightInterval(high=9)
        trimmed_query, trimmed_db = trimmer.trim_interval(query, db, interval)
        assert trimmed_query.variables == query.variables  # no helper variable
        assert weights_of(trimmed_query, trimmed_db, ranking) == expected_weights(
            query, db, ranking, interval
        )

    @pytest.mark.parametrize("comparison", COMPARISONS)
    def test_all_comparisons(self, comparison):
        query, db = three_path_instance(seed=2)
        ranking = SumRanking(["x3", "x4"])  # both in R3
        trimmer = SumAdjacentTrimmer(ranking)
        interval = one_sided(comparison, 12)
        trimmed = trimmer.trim_interval(query, db, interval)
        assert weights_of(*trimmed, ranking) == expected_weights(query, db, ranking, interval)


class TestAdjacentPairCover:
    @pytest.mark.parametrize("comparison", COMPARISONS)
    def test_all_comparisons_exact(self, comparison):
        query, db = three_path_instance(seed=3)
        ranking = SumRanking(["x1", "x2", "x3"])  # spans R1 and R2 (adjacent)
        trimmer = SumAdjacentTrimmer(ranking)
        interval = one_sided(comparison, 14)
        trimmed = trimmer.trim_interval(query, db, interval)
        assert weights_of(*trimmed, ranking) == expected_weights(query, db, ranking, interval)

    def test_helper_variable_on_both_atoms_only(self):
        query, db = three_path_instance(seed=4)
        ranking = SumRanking(["x1", "x2", "x3"])
        trimmed_query, _ = SumAdjacentTrimmer(ranking).trim_interval(
            query, db, WeightInterval(high=14)
        )
        (helper,) = trimmed_query.variables - query.variables
        holders = [i for i, atom in enumerate(trimmed_query) if helper in atom.variable_set]
        assert len(holders) == 2
        assert trimmed_query.is_acyclic

    def test_interval_single_pass(self):
        query, db = three_path_instance(seed=5)
        ranking = SumRanking(["x1", "x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        interval = WeightInterval(low=8, high=20)
        trimmed = trimmer.trim_interval(query, db, interval)
        assert weights_of(*trimmed, ranking) == expected_weights(query, db, ranking, interval)

    def test_interval_composition_agrees_with_single_pass(self):
        """Trimming the low bound, then the high bound of that output, keeps
        the answers of the one two-sided pass."""
        query, db = three_path_instance(seed=6)
        ranking = SumRanking(["x1", "x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        single = trimmer.trim_interval(query, db, WeightInterval(low=8, high=20))
        above = trimmer.trim_interval(query, db, WeightInterval(low=8))
        composed = trimmer.trim_interval(*above, WeightInterval(high=20))
        assert weights_of(*single, ranking) == weights_of(*composed, ranking)

    def test_output_size_is_quasilinear(self):
        """The rewritten relations grow by at most a logarithmic factor."""
        import math

        query, db = three_path_instance(seed=7, rows=200, domain=10)
        ranking = SumRanking(["x1", "x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        _, trimmed_db = trimmer.trim_interval(query, db, WeightInterval(high=15))
        bound = db.size * (2 * math.log2(db.size) + 2)
        assert trimmed_db.size <= bound

    def test_counting_on_trimmed_instance(self):
        query, db = three_path_instance(seed=8)
        ranking = SumRanking(["x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        interval = WeightInterval(low=5)
        trimmed = trimmer.trim_interval(query, db, interval)
        expected = len(expected_weights(query, db, ranking, interval))
        assert count_answers(*trimmed) == expected

    def test_unbounded_interval_is_identity(self):
        query, db = three_path_instance(seed=9)
        ranking = SumRanking(["x1", "x2"])
        trimmer = SumAdjacentTrimmer(ranking)
        trimmed = trimmer.trim_interval(query, db, WeightInterval())
        assert count_answers(*trimmed) == count_answers(query, db)

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
        interval = WeightInterval(high=30)
        trimmed = trimmer.trim_interval(query, db, interval)
        assert weights_of(*trimmed, ranking) == expected_weights(query, db, ranking, interval)


@pytest.mark.parametrize("comparison", COMPARISONS)
def test_decimal_weights_keep_exactly_the_answers_inside(comparison):
    """Weights in tenths: ``bound − own`` can round past the group weight
    that meets the bound (``0.4 − 0.1 > 0.3``), so the trim settles each
    bisected edge on ``own + w_S`` itself."""
    query = JoinQuery([Atom("R", ("a", "b")), Atom("S", ("b", "c"))])
    tenths = [i / 10 for i in range(-20, 21)]  # both rounding directions occur
    db = Database(
        [
            Relation("R", ("a", "b"), [(a, 0) for a in tenths]),
            Relation("S", ("b", "c"), [(0, c) for c in tenths]),
        ]
    )
    ranking = SumRanking(["a", "c"])
    trimmer = SumAdjacentTrimmer(ranking)
    weights = weights_of(query, db, ranking)
    for bound in sorted(set(weights)):
        interval = one_sided(comparison, bound)
        trimmed = trimmer.trim_interval(query, db, interval)
        assert count_answers(*trimmed) == sum(map(interval.contains, weights)), bound


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
    trimmed = trimmer.trim_interval(query, db, interval)
    assert weights_of(*trimmed, ranking) == expected_weights(query, db, ranking, interval)


class TestHelpers:
    def test_trim_interval_is_the_one_abstract_method(self):
        assert Trimmer.__abstractmethods__ == frozenset({"trim_interval"})

    def test_fresh_variable_avoids_collisions(self):
        query = JoinQuery([Atom("R", ("v", "v_1"))])
        assert fresh_variable(query, "v") == "v_2"
        assert fresh_variable(query, "w") == "w"
