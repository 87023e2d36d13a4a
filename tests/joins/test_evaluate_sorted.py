"""The columnar terminal: ``evaluate_sorted`` against ``evaluate`` + keyed sort.

One generative differential test pins the contract
the pivoting loop relies on — position for position, ties included, the
weight-sorted columns are ``sorted(evaluate(...), key=ranking.weight_of)`` —
and the guardrail tests pin what the runtime layer relies on: one
``yannakakis.answer`` checkpoint per tree level, charged the candidates that
level adds, raising the typed errors from inside the enumeration.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.engine import PreparedQuery
from repro.exceptions import BudgetExceededError, ExecutionCancelledError
from repro.joins.message_passing import MaterializedTree
from repro.joins.yannakakis import evaluate, evaluate_sorted
from repro.runtime import CancellationToken, ExecutionContext
from repro.testing import FaultPlan, InjectedFault, inject_faults

from tests.conftest import (
    at_checkpoint,
    fanout_instance,
    join_instances,
)


@settings(max_examples=120, deadline=None)
@given(join_instances())
def test_columns_equal_evaluate_then_sort_at_every_position(instance):
    query, db, ranking = instance
    reference = sorted(evaluate(query, db), key=ranking.weight_of)
    keep = set(sorted(query.variables)[::2])
    weights, columns = evaluate_sorted(query, db, ranking)
    _, kept = evaluate_sorted(query, db, ranking, keep=keep)
    assert len(weights) == len(reference)
    assert all(len(column) == len(weights) for column in columns.values())
    for position, answer in enumerate(reference):
        got = {variable: column[position] for variable, column in columns.items()}
        # repr compares key order and tells 0 from 0.0 from -0.0.
        assert repr(got) == repr(answer)
        assert repr(weights[position]) == repr(ranking.weight_of(answer))
    assert list(kept) == [variable for variable in columns if variable in keep]
    assert all(kept[variable] == columns[variable] for variable in kept)


# ---------------------------------------------------------------------- #
# Guardrails: typed errors from inside the enumeration
# ---------------------------------------------------------------------- #
def test_one_checkpoint_per_level_charging_the_candidates_produced():
    query, db, ranking = fanout_instance()
    tree = MaterializedTree(query, db)
    evaluate(query, db, tree=tree)  # builds the tree's lazy group ids
    with ExecutionContext() as reference:
        answers = evaluate(query, db, tree=tree)  # charges one row per answer
    plan = FaultPlan()
    with inject_faults(plan), ExecutionContext() as context:
        weights, _ = evaluate_sorted(query, db, ranking, tree=tree)
    assert len(weights) == len(answers) == 2700
    assert plan.seen["yannakakis.answer"] == 3
    assert context.rows_used == reference.rows_used


def test_row_budget_below_the_candidate_count_trips_inside_the_terminal():
    query, db, ranking = fanout_instance()
    with ExecutionContext(max_rows=1000):
        with pytest.raises(BudgetExceededError) as excinfo:
            evaluate_sorted(query, db, ranking)
    assert excinfo.value.budget == "rows"
    assert excinfo.value.checkpoint == "yannakakis.answer"


def test_deadline_expiring_mid_enumeration_raises_timeout():
    query, db, ranking = fanout_instance()
    now = [0.0]
    with at_checkpoint("yannakakis.answer", 2, lambda: now.__setitem__(0, 10.0)):
        with ExecutionContext(timeout=1.0, clock=lambda: now[0]):
            with pytest.raises(BudgetExceededError) as excinfo:
                evaluate_sorted(query, db, ranking)
    assert excinfo.value.budget == "timeout"
    assert excinfo.value.checkpoint == "yannakakis.answer"


def test_cancellation_mid_enumeration_raises_cancelled():
    query, db, ranking = fanout_instance()
    token = CancellationToken()
    with at_checkpoint("yannakakis.answer", 2, token.cancel):
        with ExecutionContext(cancellation=token):
            with pytest.raises(ExecutionCancelledError) as excinfo:
                evaluate_sorted(query, db, ranking)
    assert excinfo.value.checkpoint == "yannakakis.answer"


@pytest.mark.faults
def test_fault_in_the_terminal_leaves_no_partial_answer_cache_entry():
    query, db, ranking = fanout_instance()
    prepared = PreparedQuery(query, db, ranking)
    expected = PreparedQuery(query, db, ranking).quantile(0.5)
    with inject_faults(FaultPlan().arm("yannakakis.answer", after=1)):
        with pytest.raises(InjectedFault):
            prepared.quantile(0.5)
    assert all(not answers for _, answers in prepared._caches.values())
    result = prepared.quantile(0.5)
    assert (result.weight, result.target_index, result.assignment) == (
        expected.weight,
        expected.target_index,
        expected.assignment,
    )
    assert sum(len(answers) for _, answers in prepared._caches.values()) == 1
