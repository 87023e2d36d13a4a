"""The deterministic fault-injection harness, and the cache-consistency
regression suite built on it: a fault in the middle of any cache build must
leave the caches as if the failed call never happened, so the next call
rebuilds fully and answers correctly."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.exceptions import ReproError
from repro.ranking.minmax import MaxRanking
from repro.runtime import checkpoint
from repro.runtime.context import set_fault_hook
from repro.testing import FaultCoverageError, FaultPlan, InjectedFault, inject_faults
from tests.conftest import assert_valid_quantile

pytestmark = pytest.mark.faults


class TestFaultPlan:
    def test_fires_on_first_occurrence_by_default(self):
        plan = FaultPlan().arm("spot")
        with inject_faults(plan):
            with pytest.raises(InjectedFault) as excinfo:
                checkpoint("spot")
        assert excinfo.value.checkpoint == "spot"
        assert excinfo.value.occurrence == 1
        assert plan.fired == [("spot", 1)]

    def test_after_skips_occurrences(self):
        plan = FaultPlan().arm("spot", after=2)
        with inject_faults(plan):
            checkpoint("spot")
            checkpoint("spot")
            with pytest.raises(InjectedFault) as excinfo:
                checkpoint("spot")
        assert excinfo.value.occurrence == 3
        assert plan.seen["spot"] == 3

    def test_faults_are_one_shot(self):
        plan = FaultPlan().arm("spot")
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                checkpoint("spot")
            checkpoint("spot")  # disarmed after firing
        assert plan.seen["spot"] == 2
        assert plan.fired == [("spot", 1)]

    def test_custom_error(self):
        class Boom(RuntimeError):
            pass

        plan = FaultPlan().arm("spot", error=Boom("disk gone"))
        with inject_faults(plan):
            with pytest.raises(Boom, match="disk gone"):
                checkpoint("spot")

    def test_unarmed_checkpoints_only_counted(self):
        plan = FaultPlan().arm("other")
        with inject_faults(plan, strict=False):
            checkpoint("spot")
            checkpoint("spot")
        assert plan.seen["spot"] == 2
        assert plan.fired == []

    def test_armed_checkpoint_never_seen_fails_loudly(self):
        # A silently renamed checkpoint must not turn the test into a no-op:
        # strict mode (the default) raises on clean exit.
        plan = FaultPlan().arm("renamed.checkpoint")
        with pytest.raises(FaultCoverageError, match="renamed.checkpoint"):
            with inject_faults(plan):
                checkpoint("spot")
        assert plan.unseen_armed() == ["renamed.checkpoint"]

    def test_coverage_failure_lists_observed_checkpoints(self):
        plan = FaultPlan().arm("gone")
        with pytest.raises(FaultCoverageError, match="spot"):
            with inject_faults(plan):
                checkpoint("spot")

    def test_coverage_error_is_an_assertion(self):
        assert issubclass(FaultCoverageError, AssertionError)

    def test_seen_but_not_due_is_not_a_coverage_failure(self):
        # The workload was shorter than the arm count; the checkpoint exists,
        # so this is a legitimate (if unfired) plan — no error.
        plan = FaultPlan().arm("spot", after=5)
        with inject_faults(plan):
            checkpoint("spot")
        assert plan.fired == []
        assert plan.unseen_armed() == []

    def test_coverage_never_masks_a_propagating_exception(self):
        plan = FaultPlan().arm("never.seen")
        with pytest.raises(RuntimeError, match="the real failure"):
            with inject_faults(plan):
                raise RuntimeError("the real failure")

    def test_negative_after_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().arm("spot", after=-1)

    def test_hook_restored_even_when_fault_propagates(self):
        plan = FaultPlan().arm("spot")
        with pytest.raises(InjectedFault):
            with inject_faults(plan):
                checkpoint("spot")
        # hook gone: the same checkpoint is silent now
        checkpoint("spot")
        assert plan.seen["spot"] == 1

    def test_injected_fault_is_a_repro_error(self):
        assert issubclass(InjectedFault, ReproError)


class TestCacheConsistencyAfterFaults:
    """Interrupt cache builds mid-flight; the next call must be correct."""

    def _prepared(self, three_path):
        query, db = three_path
        ranking = MaxRanking(["x1", "x4"])
        return query, db, ranking, Engine(db).prepare(query, ranking, eager=False)

    @pytest.mark.parametrize(
        "fault_point",
        ["tree.materialize", "tree.group", "counting.node", "yannakakis.reduce"],
    )
    def test_mid_build_fault_then_correct_answer(self, three_path, fault_point):
        query, db, ranking, prepared = self._prepared(three_path)
        plan = FaultPlan().arm(fault_point, after=1)
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                prepared.quantile(0.5)
        assert plan.fired, f"fault at {fault_point!r} never fired"

        # Same prepared query, no faults: every partially built structure
        # must have been discarded, not published.
        result = prepared.quantile(0.5)
        assert_valid_quantile(query, db, ranking, result, 0.5)

    def test_fault_during_eager_prepare_then_reprepare(self, three_path):
        query, db = three_path
        ranking = MaxRanking(["x1", "x4"])
        engine = Engine(db)
        plan = FaultPlan().arm("counting.node", after=2)
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                engine.prepare(query, ranking)
        assert plan.fired

        result = engine.prepare(query, ranking).quantile(0.5)
        assert_valid_quantile(query, db, ranking, result, 0.5)

    def test_repeated_faults_never_corrupt_the_tree_cache(self, three_path):
        query, db, ranking, prepared = self._prepared(three_path)
        baseline = prepared.quantile(0.5)
        prepared.clear_pivot_cache()  # also clears the tree cache

        for occurrence in range(3):
            plan = FaultPlan().arm("tree.materialize", after=occurrence)
            with inject_faults(plan):
                with pytest.raises(InjectedFault):
                    prepared.quantile(0.5)
            prepared.clear_pivot_cache()

        assert prepared.quantile(0.5).weight == baseline.weight


class TestNoHookLeaks:
    def test_suite_leaves_no_global_hook(self):
        # A leaked hook would make every later test observe phantom faults.
        assert set_fault_hook(None) is None
