"""Degradation policies: tripped budgets fall back instead of dying.

The row budget is a deterministic work proxy, so these tests pick thresholds
from measured strategy costs of one φ on the ``three_path`` fixture and never
depend on timing.  Under ``max(x1, x4)``: exact-pivot (weight bisection)
~3.3k rows cold and still ~0.9k after a tripped call, materialize ~4.3k,
sampling ~0.95k.  Under ``lex(x1, x4)`` exact-pivot bisects keys too, ~3.6k
rows.  The full ``sum(x1, x2, x3, x4)`` (ε = 0.3) plans approx-pivot, ~17k
rows: the only plan here that costs well over materialize.  On the
one-to-one path of :func:`one_to_one` it is the other way round under MAX:
exact-pivot ~20k rows cold, materialize ~5.7k.
"""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine, PreparedQuery
from repro.exceptions import (
    BudgetExceededError,
    DegradedResultWarning,
    ExecutionCancelledError,
    SolverError,
)
from repro.ranking.minmax import MaxRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken
from repro.testing import FaultPlan, inject_faults
from repro.runtime.policy import (
    DEGRADATION_POLICIES,
    degradation_ladder,
    validate_policy,
)
from tests.conftest import rank_error

#: Trips MAX's exact-pivot, cold or after a tripped call, and materialize;
#: fits sampling.
TIGHT_ROWS = 1000
#: Trips the full SUM's approx-pivot only; fits materialize and sampling.
LOOSE_ROWS = 5000
#: On :func:`one_to_one`: trips MAX's exact-pivot, fits materialize.
BETWEEN_ROWS = 8000


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
        assert degradation_ladder("error", "exact-pivot") == []

    def test_full_ladder_order(self):
        assert degradation_ladder("degrade", "exact-pivot") == [
            "approx-pivot", "sampling", "materialize",
        ]

    def test_planned_strategy_never_retried(self):
        assert degradation_ladder("degrade", "sampling") == [
            "approx-pivot", "materialize",
        ]
        assert degradation_ladder("materialize", "materialize") == []


class TestEngineDegradation:
    def _prepare(self, three_path, ranking=MaxRanking(["x1", "x4"]), **kwargs):
        query, db = three_path
        kwargs.setdefault("seed", 7)
        kwargs.setdefault("eager", False)
        return Engine(db).prepare(query, ranking, **kwargs)

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
            three_path, SumRanking(["x1", "x2", "x3", "x4"]), epsilon=0.3,
            max_rows=LOOSE_ROWS, on_budget="materialize",
        )
        with pytest.warns(DegradedResultWarning):
            result = prepared.quantile(0.5)
        assert result.degraded
        assert result.strategy == "materialize"
        assert result.exact  # materialize is a lossless fallback

    def test_all_rungs_tripped_reraises_budget_error(self, three_path):
        # materialize (~4.3k rows) trips the tight budget too.
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


def one_to_one(n=300):
    """A 3-path whose every row joins exactly one row per relation."""
    db = Database(
        [Relation(name, ("a", "b"), [(i, i) for i in range(n)]) for name in ("R1", "R2", "R3")]
    )
    return "R1(x1, x2), R2(x2, x3), R3(x3, x4)", db


class TestInvalidRungs:
    """The ladder names every rung of the policy; a rung that does not apply
    to the query raises before doing any work, so it is skipped at no cost."""

    def test_max_without_epsilon_degrades_to_materialize(self):
        query, db = one_to_one()
        prepared = Engine(db).prepare(
            query, "max(x1, x4)", max_rows=BETWEEN_ROWS, on_budget="degrade", eager=False,
        )
        with pytest.warns(DegradedResultWarning):
            result = prepared.quantile(0.5)
        assert result.strategy == "materialize" and result.exact
        assert result.degradation.startswith("exact-pivot -> materialize (")

    @staticmethod
    def _tripped_materialize(on_budget):
        """The budget error of a tripped ``materialize`` plan under MAX, and
        the checkpoints the call passed."""
        query, db = one_to_one()
        prepared = PreparedQuery(
            query, db, "max(x1, x4)", strategy="materialize", epsilon=0.3,
            max_rows=3000, on_budget=on_budget,
        )
        with inject_faults(FaultPlan()) as plan, pytest.raises(BudgetExceededError) as excinfo:
            prepared.quantile(0.5)
        return excinfo.value, plan.seen

    def test_an_invalid_rung_reraises_the_original_error(self):
        original, _ = self._tripped_materialize("error")
        reraised, _ = self._tripped_materialize("approx")
        assert (reraised.checkpoint, str(reraised)) == (original.checkpoint, str(original))

    def test_an_invalid_rung_does_no_work(self):
        # approx-pivot under MAX is refused before it reduces or counts.
        _, planned = self._tripped_materialize("error")
        _, degraded = self._tripped_materialize("approx")
        layers = ("trim.", "yannakakis.", "tree.", "counting.")
        work = [name for name in degraded if name.startswith(layers)]
        assert work
        assert {n: degraded[n] for n in work} == {n: planned[n] for n in work}
        assert degraded["engine.execute"] == planned["engine.execute"] + 1
