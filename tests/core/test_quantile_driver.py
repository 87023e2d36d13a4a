"""Tests for the pivoting driver (Algorithm 1) and its bookkeeping."""

import pytest

from repro.core.quantile import phi_for_index, pivoting_quantile, target_index_for
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.exceptions import EmptyResultError, ValidationError
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.sum import SumRanking
from repro.trim.sum_adjacent_trim import SumAdjacentTrimmer

from tests.conftest import assert_valid_quantile


class TestTargetIndex:
    def test_floor_semantics(self):
        assert target_index_for(0.5, 10) == 5
        assert target_index_for(0.5, 11) == 5
        assert target_index_for(0.0, 10) == 0

    def test_clamping_at_one(self):
        assert target_index_for(1.0, 10) == 9

    def test_invalid_phi(self):
        with pytest.raises(ValueError):
            target_index_for(1.5, 10)
        with pytest.raises(ValueError):
            target_index_for(-0.1, 10)
        for not_a_number in ("0.5", [0.5], None, float("nan"), True):
            with pytest.raises(ValidationError):
                target_index_for(not_a_number, 10)

    def test_empty(self):
        with pytest.raises(EmptyResultError):
            target_index_for(0.5, 0)


class TestPhiForIndex:
    def test_exact_round_trip(self):
        """Regression: ``index / total`` drifts to a neighbouring rank through
        floating point (e.g. ``⌊(3/7)·7⌋ == 2``); the shared helper must not."""
        for total in range(1, 120):
            for index in range(total):
                phi = phi_for_index(index, total)
                assert target_index_for(phi, total) == index, (index, total)

    def test_naive_conversion_would_drift(self):
        # Documents the bug the helper fixes: the old index/total conversion.
        assert target_index_for(15 / 22, 22) == 14  # not 15!
        assert target_index_for(phi_for_index(15, 22), 22) == 15

    def test_phi_stays_in_unit_interval(self):
        assert 0.0 <= phi_for_index(0, 1) <= 1.0
        assert 0.0 <= phi_for_index(999, 1000) <= 1.0

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            phi_for_index(-1, 10)
        with pytest.raises(ValueError):
            phi_for_index(10, 10)
        for not_an_int in ("3", 2.0, [3], True):
            with pytest.raises(ValidationError):
                phi_for_index(not_an_int, 10)

    def test_empty(self):
        with pytest.raises(EmptyResultError):
            phi_for_index(0, 0)


class TestDriver:
    def test_phi_and_index_are_mutually_exclusive(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        with pytest.raises(ValueError):
            pivoting_quantile(query, db, ranking, trimmer)
        with pytest.raises(ValueError):
            pivoting_quantile(query, db, ranking, trimmer, phi=0.5, index=3)

    def test_index_out_of_range(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        with pytest.raises(ValueError):
            pivoting_quantile(query, db, ranking, trimmer, index=10**9)
        # A malformed request is the same typed error from every strategy
        # and entry point (these used to be bare TypeErrors, selection(2.0)
        # from inside the terminal select).
        for strategy in ("exact-pivot", "approx-pivot", "sampling", "materialize"):
            prepared = PreparedQuery(
                query, db, ranking, strategy=strategy, epsilon=0.2, seed=3
            )
            # A bool is never a number, here as at the HTTP door.
            for index in (10**9, -1, "3", 2.0, True, False):
                with pytest.raises(ValidationError):
                    prepared.selection(index)
            for phi in (1.5, "0.5", [0.5], float("nan"), True, False):
                with pytest.raises(ValidationError):
                    prepared.quantile(phi)
                with pytest.raises(ValidationError):
                    prepared.quantiles([0.5, phi])

    def test_empty_result(self):
        query = JoinQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
        db = Database(
            [Relation("R", ("a", "b"), [(1, 2)]), Relation("S", ("a", "b"), [(3, 4)])]
        )
        ranking = SumRanking(["x"])
        with pytest.raises(EmptyResultError):
            pivoting_quantile(query, db, ranking, SumAdjacentTrimmer(ranking), phi=0.5)
        # Every strategy and entry point raises the same typed error
        # (selection under "sampling" used to raise SolverError).
        for strategy in ("exact-pivot", "sampling", "materialize"):
            prepared = PreparedQuery(
                query, db, ranking, strategy=strategy, epsilon=0.2, seed=3
            )
            with pytest.raises(EmptyResultError):
                prepared.quantile(0.5)
            with pytest.raises(EmptyResultError):
                prepared.selection(0)

    def test_stats_are_recorded(self, three_path):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting_quantile(
            query, db, ranking, SumAdjacentTrimmer(ranking), phi=0.5, termination_size=1
        )
        assert result.iterations == len(result.stats)
        assert result.iterations >= 1
        for stat in result.stats:
            assert stat.chosen in ("lt", "eq", "gt")
            assert stat.count_lt >= 0 and stat.count_gt >= 0 and stat.count_eq >= 0
            assert 0 < stat.c <= 0.5

    def test_exact_flag_follows_trimmer(self, three_path):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting_quantile(query, db, ranking, SumAdjacentTrimmer(ranking), phi=0.5)
        assert result.exact
        assert result.strategy == "exact-pivot"

    def test_assignment_projected_to_original_variables(self, three_path):
        query, db = three_path
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting_quantile(query, db, ranking, SumAdjacentTrimmer(ranking), phi=0.5)
        assert set(result.assignment) == set(query.variables)

    def test_termination_size_zero_forces_pivot_loop(self, binary_join):
        """With termination_size=0 the algorithm must finish via the equal
        partition instead of materializing."""
        query, db = binary_join
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting_quantile(
            query, db, ranking, SumAdjacentTrimmer(ranking), phi=0.5, termination_size=0
        )
        assert_valid_quantile(query, db, ranking, result, 0.5)
        assert result.stats[-1].chosen == "eq"

    def test_large_termination_size_materializes_immediately(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x2", "x3"])
        result = pivoting_quantile(
            query, db, ranking, SumAdjacentTrimmer(ranking), phi=0.5,
            termination_size=10**9,
        )
        assert result.iterations == 0
        assert_valid_quantile(query, db, ranking, result, 0.5)

    def test_selection_by_index(self, binary_join):
        query, db = binary_join
        ranking = SumRanking(["x1", "x2", "x3"])
        trimmer = SumAdjacentTrimmer(ranking)
        total = pivoting_quantile(
            query, db, ranking, trimmer, phi=0.0
        ).total_answers
        for index in (0, total // 3, total - 1):
            result = pivoting_quantile(query, db, ranking, trimmer, index=index)
            phi_equivalent = index / total
            assert_valid_quantile(query, db, ranking, result, phi_equivalent)
