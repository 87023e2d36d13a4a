"""Degradation policies: tripped budgets fall back instead of dying.

The row budget is a deterministic work proxy, so these tests pick thresholds
from measured strategy costs on the ``three_path`` fixture (exact-pivot
~6.3k rows, materialize ~3.9k, sampling ~0.5k) and never depend on timing.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.exceptions import (
    BudgetExceededError,
    DegradedResultWarning,
    ExecutionCancelledError,
    SolverError,
)
from repro.ranking.minmax import MaxRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken
from repro.runtime.policy import (
    DEGRADATION_POLICIES,
    degradation_ladder,
    validate_policy,
)
from tests.conftest import rank_error

#: Trips exact-pivot (~6.3k rows) and materialize (~3.9k); fits sampling.
TIGHT_ROWS = 1500
#: Trips exact-pivot only; fits materialize and sampling.
LOOSE_ROWS = 5000


class TestPolicyLadder:
    def test_known_policies(self):
        assert DEGRADATION_POLICIES == (
            "error", "approx", "sampling", "materialize", "degrade",
        )
        for policy in DEGRADATION_POLICIES:
            assert validate_policy(policy) == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(SolverError):
            validate_policy("shrug")

    def test_error_policy_has_no_rungs(self):
        assert degradation_ladder("error", "exact-pivot", True, True) == []

    def test_full_ladder_order(self):
        assert degradation_ladder("degrade", "exact-pivot", True, True) == [
            "approx-pivot", "sampling", "materialize",
        ]

    def test_planned_strategy_never_retried(self):
        assert degradation_ladder("degrade", "sampling", True, True) == [
            "approx-pivot", "materialize",
        ]
        assert degradation_ladder("materialize", "materialize", True, True) == []

    def test_unavailable_approximations_skipped(self):
        assert degradation_ladder("degrade", "exact-pivot", False, False) == [
            "materialize",
        ]
        assert degradation_ladder("approx", "exact-pivot", False, True) == []
        assert degradation_ladder("sampling", "exact-pivot", True, False) == []


class TestEngineDegradation:
    def _prepare(self, three_path, **kwargs):
        query, db = three_path
        kwargs.setdefault("seed", 7)
        kwargs.setdefault("eager", False)
        return Engine(db).prepare(query, MaxRanking(["x1", "x4"]), **kwargs)

    def test_error_policy_raises(self, three_path):
        prepared = self._prepare(three_path, max_rows=TIGHT_ROWS)
        with pytest.raises(BudgetExceededError) as excinfo:
            prepared.quantile(0.5)
        assert excinfo.value.budget == "rows"
        assert excinfo.value.checkpoint

    def test_degrades_to_sampling_with_flag_and_warning(self, three_path):
        query, db = three_path
        prepared = self._prepare(
            three_path, epsilon=0.3, max_rows=TIGHT_ROWS, on_budget="sampling",
        )
        with pytest.warns(DegradedResultWarning):
            result = prepared.quantile(0.5)
        assert result.degraded
        assert result.strategy == "sampling"
        assert "rows budget tripped" in result.degradation
        assert rank_error(query, db, MaxRanking(["x1", "x4"]), result, 0.5) <= 0.3

    def test_degrade_ladder_picks_first_fitting_rung(self, three_path):
        prepared = self._prepare(
            three_path, epsilon=0.3, max_rows=TIGHT_ROWS, on_budget="degrade",
        )
        with pytest.warns(DegradedResultWarning):
            result = prepared.quantile(0.5)
        # MAX ranking: approx-pivot is unavailable, sampling fits the budget.
        assert result.strategy == "sampling"
        assert result.degraded

    def test_degrades_to_materialize_stays_exact(self, three_path):
        prepared = self._prepare(
            three_path, max_rows=LOOSE_ROWS, on_budget="materialize",
        )
        with pytest.warns(DegradedResultWarning):
            result = prepared.quantile(0.5)
        assert result.degraded
        assert result.strategy == "materialize"
        assert result.exact  # materialize is a lossless fallback

    def test_all_rungs_tripped_reraises_budget_error(self, three_path):
        # materialize (~3.9k rows) trips the tight budget too.
        prepared = self._prepare(
            three_path, max_rows=TIGHT_ROWS, on_budget="materialize",
        )
        with pytest.raises(BudgetExceededError):
            prepared.quantile(0.5)

    def test_empty_ladder_reraises(self, three_path):
        # approx-pivot needs a SUM ranking; under MAX the approx policy has
        # no applicable rung, so the original budget error propagates.
        prepared = self._prepare(
            three_path, epsilon=0.3, max_rows=TIGHT_ROWS, on_budget="approx",
        )
        with pytest.raises(BudgetExceededError):
            prepared.quantile(0.5)

    def test_untripped_run_is_not_degraded(self, three_path):
        prepared = self._prepare(
            three_path, max_rows=10**9, timeout=3600.0, on_budget="degrade",
        )
        result = prepared.quantile(0.5)
        assert not result.degraded
        assert result.degradation is None
        assert result.strategy == "exact-pivot"

    def test_cancellation_is_never_degraded(self, three_path):
        token = CancellationToken()
        token.cancel("shutting down")
        prepared = self._prepare(
            three_path, epsilon=0.3, on_budget="degrade", cancellation=token,
        )
        with pytest.raises(ExecutionCancelledError):
            prepared.quantile(0.5)

    def test_cancel_between_calls(self, three_path):
        token = CancellationToken()
        prepared = self._prepare(three_path, cancellation=token)
        assert prepared.quantile(0.5).weight is not None
        token.cancel()
        with pytest.raises(ExecutionCancelledError):
            prepared.quantile(0.25)

    def test_invalid_on_budget_rejected_at_prepare(self, three_path):
        query, db = three_path
        with pytest.raises(SolverError):
            Engine(db).prepare(
                query, MaxRanking(["x1", "x4"]), on_budget="panic", eager=False,
            )

    def test_quantile_batch_degrades_per_call(self, three_path):
        prepared = self._prepare(
            three_path, epsilon=0.3, max_rows=TIGHT_ROWS, on_budget="sampling",
        )
        with pytest.warns(DegradedResultWarning):
            results = prepared.quantiles([0.25, 0.75])
        assert all(r.degraded for r in results)

    def test_degradation_string_rendered(self, three_path):
        prepared = self._prepare(
            three_path, epsilon=0.3, max_rows=TIGHT_ROWS, on_budget="sampling",
        )
        with pytest.warns(DegradedResultWarning):
            result = prepared.quantile(0.5)
        assert "degraded" in str(result)


class TestApproxRungOnSum:
    def test_sum_ranking_can_degrade_to_approx_pivot(self, three_path):
        query, db = three_path
        ranking = SumRanking(["x1", "x2"])  # partial SUM: exact plan first
        prepared = Engine(db).prepare(
            query, ranking, epsilon=0.3, max_rows=TIGHT_ROWS,
            on_budget="degrade", seed=7, eager=False,
        )
        with pytest.warns(DegradedResultWarning):
            result = prepared.quantile(0.5)
        assert result.degraded
        assert result.strategy in ("approx-pivot", "sampling")
        assert rank_error(query, db, ranking, result, 0.5) <= 0.3
