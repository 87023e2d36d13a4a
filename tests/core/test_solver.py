"""Strategy selection (the Theorem 5.6 dichotomy) through ``PreparedQuery``."""

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import IntractableQueryError, SolverError
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking

from tests.conftest import assert_valid_quantile, pivoting


def three_path_full_sum(three_path):
    query, db = three_path
    return query, db, SumRanking(["x1", "x2", "x3", "x4"])


class TestPlanning:
    def test_min_max_lex_always_exact(self, three_path):
        query, db = three_path
        for ranking in (MinRanking(["x1"]), MaxRanking(["x4"]), LexRanking(["x1", "x4"])):
            plan = pivoting(query, db, ranking).plan()
            assert plan.strategy == "exact-pivot"
            assert plan.classification.is_tractable

    def test_tractable_sum_exact(self, three_path):
        query, db = three_path
        plan = pivoting(query, db, SumRanking(["x1", "x2", "x3"])).plan()
        assert plan.strategy == "exact-pivot"

    def test_intractable_sum_without_epsilon_raises(self, three_path):
        query, db, ranking = three_path_full_sum(three_path)
        with pytest.raises(IntractableQueryError):
            pivoting(query, db, ranking).plan()

    def test_intractable_sum_with_epsilon_approximates(self, three_path):
        query, db, ranking = three_path_full_sum(three_path)
        plan = pivoting(query, db, ranking, epsilon=0.2).plan()
        assert plan.strategy == "approx-pivot"
        assert not plan.classification.is_tractable

    def test_forced_materialize(self, three_path):
        query, db, ranking = three_path_full_sum(three_path)
        solver = pivoting(query, db, ranking, strategy="materialize")
        result = solver.quantile(0.5)
        assert result.strategy == "materialize"
        assert result.exact
        assert_valid_quantile(query, db, ranking, result, 0.5)

    def test_forced_exact_pivot_on_intractable_raises(self, three_path):
        query, db, ranking = three_path_full_sum(three_path)
        solver = pivoting(query, db, ranking, strategy="exact-pivot")
        with pytest.raises(IntractableQueryError):
            solver.quantile(0.5)

    def test_sampling_requires_epsilon(self, three_path):
        query, db, ranking = three_path_full_sum(three_path)
        solver = pivoting(query, db, ranking, strategy="sampling")
        with pytest.raises(SolverError):
            solver.quantile(0.5)

    def test_plan_reason_mentions_dichotomy(self, three_path):
        query, db = three_path
        plan = pivoting(query, db, SumRanking(["x1", "x2", "x3"])).plan()
        assert "tractable" in plan.reason


class TestExecution:
    def test_count(self, figure1_query, figure1_db):
        solver = pivoting(figure1_query, figure1_db, SumRanking(["x1"]))
        assert solver.count() == 13

    def test_selection_via_sampling_strategy(self, three_path):
        query, db, ranking = three_path_full_sum(three_path)
        solver = pivoting(query, db, ranking, epsilon=0.3, strategy="sampling", seed=1)
        result = solver.selection(5)
        assert result.strategy == "sampling"
        assert query.satisfies(result.assignment, db)

    def test_result_string_representation(self, binary_join):
        query, db = binary_join
        result = pivoting(query, db, SumRanking(["x1", "x3"])).quantile(0.5)
        text = str(result)
        assert "exact" in text and "strategy" in text

    def test_cyclic_query_rejected(self):
        triangle = JoinQuery(
            [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
        )
        db = Database(
            [
                Relation("R", ("a", "b"), [(1, 2)]),
                Relation("S", ("a", "b"), [(2, 3)]),
                Relation("T", ("a", "b"), [(3, 1)]),
            ]
        )
        with pytest.raises(IntractableQueryError):
            pivoting(triangle, db, SumRanking(["x", "y", "z"])).plan()

    def test_cyclic_query_can_still_be_materialized(self):
        triangle = JoinQuery(
            [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
        )
        db = Database(
            [
                Relation("R", ("a", "b"), [(1, 2), (5, 6)]),
                Relation("S", ("a", "b"), [(2, 3)]),
                Relation("T", ("a", "b"), [(3, 1)]),
            ]
        )
        ranking = SumRanking(["x", "y", "z"])
        result = pivoting(triangle, db, ranking, strategy="materialize").quantile(0.5)
        assert result.weight == 6.0
