"""Unit tests of the execution-context layer (budgets and cancellation)."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    BudgetExceededError,
    ExecutionCancelledError,
    ValidationError,
)
from repro.runtime import CancellationToken, ExecutionContext, checkpoint
from repro.runtime.context import current_context


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCheckpointWithoutContext:
    def test_is_a_no_op(self):
        assert current_context() is None
        checkpoint("anything", rows=10**9)  # must not raise

    def test_context_deactivated_after_block(self):
        with ExecutionContext(max_rows=5) as context:
            assert current_context() is context
        assert current_context() is None

    def test_context_deactivated_after_raise(self):
        with pytest.raises(BudgetExceededError):
            with ExecutionContext(max_rows=5):
                checkpoint("loop", rows=6)
        assert current_context() is None
        checkpoint("loop", rows=10**9)  # budget gone with the context


class TestValidation:
    @pytest.mark.parametrize("timeout", [0, -1, -0.5])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValidationError):
            ExecutionContext(timeout=timeout)

    @pytest.mark.parametrize("max_rows", [0, -3])
    def test_non_positive_max_rows_rejected(self, max_rows):
        with pytest.raises(ValidationError):
            ExecutionContext(max_rows=max_rows)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("timeout", float("nan")), ("timeout", float("inf")), ("timeout", True),
            ("timeout", "5"), ("max_rows", float("nan")), ("max_rows", float("inf")),
            ("max_rows", 1.5), ("max_rows", True), ("max_rows", "5"),
        ],
    )
    def test_non_finite_or_mistyped_limit_rejected(self, knob, value):
        # NaN compares false against every bound: it used to switch the
        # budget off instead of being refused.
        with pytest.raises(ValidationError, match=knob):
            ExecutionContext(**{knob: value})

    def test_validation_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            ExecutionContext(timeout=-1)

    def test_double_activation_rejected(self):
        context = ExecutionContext(max_rows=5)
        with context:
            with pytest.raises(ValidationError):
                context.__enter__()

    def test_reusable_after_exit(self):
        context = ExecutionContext(max_rows=5)
        with context:
            checkpoint("loop", rows=2)
        with context:
            checkpoint("loop", rows=2)
        assert context.rows_used == 4


class TestRowBudget:
    def test_trips_past_the_budget(self):
        with ExecutionContext(max_rows=10):
            checkpoint("loop", rows=10)  # exactly at the budget: fine
            with pytest.raises(BudgetExceededError) as excinfo:
                checkpoint("loop", rows=1)
        assert excinfo.value.budget == "rows"
        assert excinfo.value.checkpoint == "loop"

    def test_charges_accumulate_across_checkpoints(self):
        with ExecutionContext(max_rows=10) as context:
            for _ in range(5):
                checkpoint("loop", rows=2)
            assert context.rows_used == 10
            assert context.remaining_rows() == 0

    def test_zero_row_checkpoints_are_free(self):
        with ExecutionContext(max_rows=1) as context:
            for _ in range(100):
                checkpoint("probe")
            assert context.rows_used == 0
            assert context.checkpoints == 100


class TestDeadline:
    def test_trips_once_the_clock_passes(self):
        clock = FakeClock()
        with ExecutionContext(timeout=1.0, clock=clock):
            checkpoint("loop")
            clock.advance(1.5)
            with pytest.raises(BudgetExceededError) as excinfo:
                checkpoint("loop")
        assert excinfo.value.budget == "timeout"
        assert excinfo.value.checkpoint == "loop"

    def test_deadline_armed_at_construction_not_activation(self):
        clock = FakeClock()
        context = ExecutionContext(timeout=1.0, clock=clock)
        clock.advance(2.0)  # budget burns even before the block starts
        with context:
            with pytest.raises(BudgetExceededError):
                checkpoint("loop")

    def test_remaining_time(self):
        clock = FakeClock()
        with ExecutionContext(timeout=2.0, clock=clock) as context:
            clock.advance(0.5)
            assert context.remaining_time() == pytest.approx(1.5)
            assert context.elapsed() == pytest.approx(0.5)

    def test_unbounded_context_never_trips(self):
        with ExecutionContext() as context:
            checkpoint("loop", rows=10**6)
            assert context.remaining_time() is None
            assert context.remaining_rows() is None


class TestCancellation:
    def test_cancel_raises_at_next_checkpoint(self):
        token = CancellationToken()
        with ExecutionContext(cancellation=token):
            checkpoint("loop")
            token.cancel("user pressed ctrl-c")
            with pytest.raises(ExecutionCancelledError) as excinfo:
                checkpoint("loop")
        assert excinfo.value.checkpoint == "loop"
        assert "user pressed ctrl-c" in str(excinfo.value)

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"

    def test_cancellation_beats_budget_checks(self):
        token = CancellationToken()
        token.cancel()
        with ExecutionContext(max_rows=1, cancellation=token):
            with pytest.raises(ExecutionCancelledError):
                checkpoint("loop", rows=100)


class TestNesting:
    def test_outer_budget_applies_inside_inner_context(self):
        with ExecutionContext(max_rows=10):
            with ExecutionContext(max_rows=1000):
                with pytest.raises(BudgetExceededError) as excinfo:
                    checkpoint("loop", rows=11)
        assert excinfo.value.budget == "rows"

    def test_rows_charged_to_both_contexts(self):
        with ExecutionContext(max_rows=100) as outer:
            with ExecutionContext(max_rows=100) as inner:
                checkpoint("loop", rows=7)
            assert inner.rows_used == 7
        assert outer.rows_used == 7

    def test_inner_exit_restores_outer(self):
        with ExecutionContext(max_rows=50) as outer:
            with ExecutionContext(max_rows=50):
                pass
            assert current_context() is outer
