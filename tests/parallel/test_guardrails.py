"""Guardrails across the process boundary: budgets, cancellation, envelopes."""

from __future__ import annotations

import pickle

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.exceptions import (
    BudgetExceededError,
    EmptyResultError,
    ExecutionCancelledError,
)
from repro.parallel.merger import ParallelSession
from repro.parallel.planner import ShardPlanner
from repro.parallel.worker import _SHARD_STATES, run_shard_task
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken


def tiny_plan(num_shards=2):
    r = Relation("R", ("x1", "x2"), [(i, i % 3) for i in range(12)])
    s = Relation("S", ("x2", "x3"), [(i % 3, i) for i in range(6)])
    query = JoinQuery([Atom("R", ("x1", "x2")), Atom("S", ("x2", "x3"))])
    return ShardPlanner(num_shards).plan(query, Database([r, s]))


class TestWorkerGuards:
    def test_row_budget_trips_inside_the_worker(self):
        plan = tiny_plan(1)
        outcome = run_shard_task(
            20_000,
            "init",
            {
                "atoms": [list(entry) for entry in plan.atoms],
                "relations": plan.shard_relations[0],
                "ranking": SumRanking(["x1", "x3"]),
            },
            guards=(None, 2),  # 2 rows cannot cover the semijoin reduction
        )
        status, payload, rows = outcome
        assert status == "budget"
        message, budget, checkpoint = payload
        assert budget == "rows"

    def test_unguarded_task_reports_zero_rows(self):
        plan = tiny_plan(1)
        status, payload, rows = run_shard_task(
            20_001,
            "init",
            {
                "atoms": [list(entry) for entry in plan.atoms],
                "relations": plan.shard_relations[0],
                "ranking": SumRanking(["x1", "x3"]),
            },
            guards=None,
        )
        assert status == "ok"
        assert rows == 0
        _SHARD_STATES.pop(20_001)


class TestEnvelopeUnwrap:
    @pytest.fixture()
    def session(self, inline_mode):
        session = ParallelSession(tiny_plan(2), SumRanking(["x1", "x3"]))
        yield session
        session.close()

    def test_budget_envelope_becomes_typed_error(self, session):
        with pytest.raises(BudgetExceededError) as caught:
            session._unwrap(1, ("budget", ("over", "rows", "joins.reduce"), 0))
        assert caught.value.budget == "rows"
        assert caught.value.checkpoint == "joins.reduce"

    def test_cancelled_envelope_becomes_typed_error(self, session):
        with pytest.raises(ExecutionCancelledError):
            session._unwrap(0, ("cancelled", ("stop", "parallel.merge"), 0))

    def test_repro_error_is_reconstructed_by_name(self, session):
        with pytest.raises(EmptyResultError, match="shard 1: nothing"):
            session._unwrap(1, ("error", ("EmptyResultError", "nothing"), 0))


class TestExceptionPickling:
    """The attrs the coordinator reads must survive the process boundary."""

    def test_budget_error_roundtrip(self):
        error = BudgetExceededError("too many rows", budget=99, checkpoint="trim.lt")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.budget == 99
        assert clone.checkpoint == "trim.lt"
        assert str(clone) == str(error)

    def test_cancelled_error_roundtrip(self):
        error = ExecutionCancelledError("drain", checkpoint="parallel.iteration")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.checkpoint == "parallel.iteration"
        assert str(clone) == str(error)


class TestEngineIntegration:
    def test_precancelled_token_cancels_parallel_call(
        self, inline_mode, fanout_workload
    ):
        workload = fanout_workload
        token = CancellationToken()
        prepared = PreparedQuery(
            workload.query,
            workload.db,
            workload.ranking,
            parallel=2,
            cancellation=token,
        )
        token.cancel("test shutdown")
        with pytest.raises(ExecutionCancelledError):
            prepared.quantile(0.5)

    def test_row_budget_threads_through_parallel_path(
        self, inline_mode, fanout_workload
    ):
        workload = fanout_workload
        prepared = PreparedQuery(
            workload.query,
            workload.db,
            workload.ranking,
            parallel=2,
            max_rows=10,
            on_budget="error",
        )
        with pytest.raises(BudgetExceededError):
            prepared.quantile(0.5)
