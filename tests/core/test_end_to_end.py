"""End-to-end correctness: the solver vs the brute-force oracle.

These are the most important tests of the suite: for every tractable
(query, ranking) combination the pivoting solver must return an *exact*
φ-quantile, and for intractable SUM it must return a (φ ± ε)-quantile.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking

from tests.conftest import (
    assert_valid_quantile,
    brute_force_weights,
    pivoting,
    rank_error,
)

PHIS = (0.0, 0.1, 0.5, 0.9, 1.0)


class TestExactOnFixtures:
    @pytest.mark.parametrize("phi", PHIS)
    def test_min_on_three_path(self, three_path, phi):
        query, db = three_path
        ranking = MinRanking(["x1", "x3", "x4"])
        result = pivoting(query, db, ranking).quantile(phi)
        assert result.exact
        assert_valid_quantile(query, db, ranking, result, phi)

    @pytest.mark.parametrize("phi", PHIS)
    def test_max_on_three_path(self, three_path, phi):
        query, db = three_path
        ranking = MaxRanking(["x1", "x4"])
        result = pivoting(query, db, ranking).quantile(phi)
        assert_valid_quantile(query, db, ranking, result, phi)

    @pytest.mark.parametrize("phi", PHIS)
    def test_lex_on_three_path(self, three_path, phi):
        query, db = three_path
        ranking = LexRanking(["x4", "x1"])
        result = pivoting(query, db, ranking).quantile(phi)
        assert_valid_quantile(query, db, ranking, result, phi)

    @pytest.mark.parametrize("phi", PHIS)
    def test_partial_sum_on_three_path(self, three_path, phi):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting(query, db, ranking).quantile(phi)
        assert_valid_quantile(query, db, ranking, result, phi)

    @pytest.mark.parametrize("phi", PHIS)
    def test_full_sum_on_binary_join(self, binary_join, phi):
        query, db = binary_join
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting(query, db, ranking).quantile(phi)
        assert_valid_quantile(query, db, ranking, result, phi)

    def test_figure1_partial_sum_median(self, figure1_query, figure1_db):
        """SUM over {x1, x3} on the Figure 1 query: both variables live in the
        single atom S(x1, x3), so the exact pivoting strategy applies."""
        ranking = SumRanking(["x1", "x3"])
        result = pivoting(figure1_query, figure1_db, ranking).quantile(0.5)
        assert_valid_quantile(figure1_query, figure1_db, ranking, result, 0.5)

    def test_selection_matches_sorted_oracle(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x2", "x3"])
        weights = brute_force_weights(query, db, ranking)
        for index in (0, 1, len(weights) // 2, len(weights) - 1):
            result = pivoting(query, db, ranking).selection(index)
            below = sum(1 for w in weights if w < result.weight)
            at_most = sum(1 for w in weights if w <= result.weight)
            assert below <= index <= at_most - 1

    def test_social_network_median(self):
        from repro.workloads.social import social_network_workload

        workload = social_network_workload(
            num_admins=30, num_shares=60, num_attends=60, num_events=8, seed=3
        )
        result = pivoting(workload.query, workload.db, workload.ranking).quantile(0.1)
        assert_valid_quantile(workload.query, workload.db, workload.ranking, result, 0.1)


class TestApproximate:
    @pytest.mark.parametrize("epsilon", [0.3, 0.1])
    @pytest.mark.parametrize("phi", (0.1, 0.5, 0.9))
    def test_full_sum_three_path_within_epsilon(self, three_path, phi, epsilon):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        result = pivoting(query, db, ranking, epsilon=epsilon).quantile(phi)
        assert not result.exact
        assert result.strategy == "approx-pivot"
        assert query.satisfies(result.assignment, db)
        assert rank_error(query, db, ranking, result, phi) <= epsilon

    def test_sampling_strategy_within_epsilon(self, three_path):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3", "x4"])
        solver = pivoting(query, db, ranking, epsilon=0.2, strategy="sampling", seed=5)
        result = solver.quantile(0.5)
        assert result.strategy == "sampling"
        assert rank_error(query, db, ranking, result, 0.5) <= 0.2


class TestSelfJoins:
    def test_self_join_min(self):
        query = JoinQuery([Atom("E", ("x", "y")), Atom("E", ("y", "z"))])
        db = Database(
            [Relation("E", ("a", "b"), [(1, 2), (2, 3), (2, 4), (3, 5), (4, 1)])]
        )
        ranking = MinRanking(["x", "z"])
        result = pivoting(query, db, ranking).quantile(0.5)
        assert_valid_quantile(query, db, ranking, result, 0.5)

    def test_self_join_sum(self):
        query = JoinQuery([Atom("E", ("x", "y")), Atom("E", ("y", "z"))])
        rng = random.Random(0)
        db = Database(
            [Relation("E", ("a", "b"), [(rng.randrange(8), rng.randrange(8)) for _ in range(30)])]
        )
        ranking = SumRanking(["x", "y", "z"])
        result = pivoting(query, db, ranking).quantile(0.25)
        assert_valid_quantile(query, db, ranking, result, 0.25)


# ---------------------------------------------------------------------- #
# Property tests: random instances, all rankings, random phi.
# ---------------------------------------------------------------------- #
def random_three_path(seed, rows, domain):
    rng = random.Random(seed)
    query = JoinQuery(
        [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")), Atom("R3", ("x3", "x4"))]
    )
    db = Database(
        [
            Relation("R1", ("a", "b"), [(rng.randrange(12), rng.randrange(domain)) for _ in range(rows)]),
            Relation("R2", ("a", "b"), [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)]),
            Relation("R3", ("a", "b"), [(rng.randrange(domain), rng.randrange(12)) for _ in range(rows)]),
        ]
    )
    return query, db


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.integers(min_value=3, max_value=14),
    domain=st.integers(min_value=1, max_value=4),
    phi=st.floats(min_value=0.0, max_value=1.0),
    ranking_kind=st.sampled_from(["min", "max", "lex", "psum"]),
)
def test_exact_quantile_property(seed, rows, domain, phi, ranking_kind):
    query, db = random_three_path(seed, rows, domain)
    if not query.answers_brute_force(db):
        return
    ranking = {
        "min": MinRanking(["x1", "x3", "x4"]),
        "max": MaxRanking(["x1", "x2", "x4"]),
        "lex": LexRanking(["x2", "x4"]),
        "psum": SumRanking(["x2", "x3", "x4"]),
    }[ranking_kind]
    result = pivoting(query, db, ranking).quantile(phi)
    assert result.exact
    assert_valid_quantile(query, db, ranking, result, phi)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.integers(min_value=3, max_value=10),
    domain=st.integers(min_value=1, max_value=3),
    phi=st.floats(min_value=0.0, max_value=1.0),
)
def test_approximate_quantile_property(seed, rows, domain, phi):
    query, db = random_three_path(seed, rows, domain)
    if not query.answers_brute_force(db):
        return
    ranking = SumRanking(["x1", "x2", "x3", "x4"])
    epsilon = 0.25
    result = pivoting(query, db, ranking, epsilon=epsilon).quantile(phi)
    assert query.satisfies(result.assignment, db)
    assert rank_error(query, db, ranking, result, phi) <= epsilon
