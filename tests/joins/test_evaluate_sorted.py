"""The terminal: ``evaluate_sorted`` against ``evaluate`` + keyed sort.

One generative differential test pins the contract the pivoting loop relies
on — position for position, ties included, ``select(p)`` and ``columns()``
are ``sorted(evaluate(...), key=ranking.weight_of)`` — pinned examples say
which nodes are deferred (expanded only by ``columns()`` and, one answer at a
time, by ``select``), and the guardrail tests pin what the runtime layer
relies on: one ``yannakakis.answer`` checkpoint per expanded tree level,
charged the partial answers that level adds, raising the typed errors from
inside the enumeration.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.exceptions import BudgetExceededError, ExecutionCancelledError
from repro.joins.counting import count_from_tree
from repro.joins.message_passing import MaterializedTree
from repro.joins.yannakakis import evaluate, evaluate_sorted
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.minmax import MaxRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken, ExecutionContext
from repro.testing import FaultPlan, InjectedFault, inject_faults

from tests.conftest import (
    at_checkpoint,
    fanout_instance,
    join_instances,
)


def assert_sorted_evaluate(query, db, ranking):
    """``select`` at every position and ``columns()`` against the reference;
    returns the terminal."""
    reference = sorted(evaluate(query, db), key=ranking.weight_of)
    keep = set(sorted(query.variables)[::2])
    answers = evaluate_sorted(query, db, ranking)
    weights, columns = answers.columns()
    narrowed = evaluate_sorted(query, db, ranking, keep=keep)
    _, kept = narrowed.columns()
    assert len(answers) == len(narrowed) == len(weights) == len(reference)
    assert all(len(column) == len(weights) for column in columns.values())
    for position, answer in enumerate(reference):
        got = {variable: column[position] for variable, column in columns.items()}
        # repr compares key order and tells 0 from 0.0 from -0.0.
        assert repr(got) == repr(answer)
        assert repr(weights[position]) == repr(ranking.weight_of(answer))
        assert repr(answers.select(position)) == repr((weights[position], got))
        assert repr(narrowed.select(position)[1]) == repr(
            {variable: value for variable, value in answer.items() if variable in keep}
        )
    assert list(kept) == [variable for variable in columns if variable in keep]
    assert all(kept[variable] == columns[variable] for variable in kept)
    return answers


@settings(max_examples=120, deadline=None)
@given(join_instances())
def test_columns_equal_evaluate_then_sort_at_every_position(instance):
    assert_sorted_evaluate(*instance)


# ---------------------------------------------------------------------- #
# Which nodes are deferred
# ---------------------------------------------------------------------- #
def relations(**rows):
    return Database(
        [Relation(name, tuple(f"a{i}" for i in range(len(r[0]))), r) for name, r in rows.items()]
    )


PATH = JoinQuery(
    [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")), Atom("R3", ("x3", "x4"))]
)
STAR = JoinQuery(
    [Atom("R1", ("x0", "x1")), Atom("R2", ("x0", "x2")), Atom("R3", ("x0", "x3"))]
)


def expanded(answers):
    """How many prefix answers the terminal sorted."""
    return len(answers._weights)


def test_join_key_mixing_zeros_under_a_typed_weight_is_not_deferred():
    # S is the last occurrence of k, its join key: one join group holds
    # 0, 0.0 and -0.0, whose weights len(repr(v)) are 1, 3 and 4.
    query = JoinQuery([Atom("R", ("x", "k")), Atom("S", ("k", "y"))])
    db = relations(R=[(1, 0), (2, 0.0)], S=[(0, 5), (0.0, 6), (-0.0, 7), (0, 8)])
    typed = SumRanking(["x", "k"], {"k": lambda v: len(repr(v))})
    answers = assert_sorted_evaluate(query, db, typed)
    assert answers._deferred == [] and expanded(answers) == len(answers) == 8
    # The plain weight float(v) tells -0.0 from 0.0 too; without -0.0 the
    # group carries one weight and S is deferred.
    assert assert_sorted_evaluate(query, db, SumRanking(["x", "k"]))._deferred == []
    db = relations(R=[(1, 0), (2, 0.0)], S=[(0, 5), (0.0, 6), (0, 8)])
    answers = assert_sorted_evaluate(query, db, SumRanking(["x", "k"]))
    assert answers._deferred == [1] and (expanded(answers), len(answers)) == (2, 6)


def test_two_level_chain_is_deferred_below_the_root():
    # R2 is the last occurrence of x2, its join key with R1; R3 has no
    # weighted variable: only R1's rows are sorted.
    db = relations(
        R1=[(i, i % 3) for i in range(6)] + [(9, 7)],  # (9, 7) dangles
        R2=[(i % 3, i % 2) for i in range(6)] + [(0, 5)],  # (0, 5) has no R3 row
        R3=[(i % 2, 10 * i) for i in range(5)],
    )
    answers = assert_sorted_evaluate(PATH, db, SumRanking(["x1", "x2"]))
    assert answers._deferred == [1, 2]
    assert expanded(answers) == 6 and len(answers) > 6


def test_two_leaves_of_a_star_are_deferred():
    # Top-down the star is R1, R3, R2: R2 is the last occurrence of x0 (the
    # hub, its join key) and R3 is unweighted.
    db = relations(
        R1=[(i % 2, i) for i in range(4)],
        R2=[(i % 2, 10 + i) for i in range(3)],
        R3=[(i % 2, 20 + i) for i in range(5)],
    )
    answers = assert_sorted_evaluate(STAR, db, MaxRanking(["x0", "x1"]))
    assert answers._deferred == [2, 1]
    assert (expanded(answers), len(answers)) == (4, 2 * (2 * 3) + 2 * (1 * 2))
    # Every leaf weighted: nothing to defer.
    assert assert_sorted_evaluate(STAR, db, MaxRanking(["x1", "x2", "x3"]))._deferred == []


# ---------------------------------------------------------------------- #
# Guardrails: typed errors from inside the enumeration
# ---------------------------------------------------------------------- #
def test_a_node_before_a_weighted_one_in_the_odometer_is_not_deferred():
    # Top-down fanout_instance() is R, T, S: T turns slower than the weighted
    # S, so its extensions of one (R, S) pair are not adjacent in tie order.
    query, db, ranking = fanout_instance()
    answers = evaluate_sorted(query, db, ranking)
    assert answers._deferred == [] and expanded(answers) == len(answers) == 2700


def test_one_checkpoint_per_level_charging_the_candidates_produced():
    # SUM(x, y) with T last in the odometer: T is deferred, so R x S = 900
    # prefix answers are expanded and charged, not the 2700 answers;
    # columns() expands (and charges) on.
    query, db, ranking = fanout_instance()
    query = JoinQuery([query[0], query[2], query[1]])
    tree = MaterializedTree(query, db)
    assert count_from_tree(tree) == 2700  # builds the tree's lazy ids and counts
    plan = FaultPlan()
    with inject_faults(plan), ExecutionContext() as context:
        answers = evaluate_sorted(query, db, ranking, tree=tree)
        assert answers._deferred == [1] and expanded(answers) == 900
        assert plan.seen["yannakakis.answer"] == 2
        assert context.rows_used == 900
        assert answers.select(1350)[0] == answers.select(1350)[0] == 29.0
        assert plan.seen["yannakakis.decode"] == 1  # per deferred node, once per position
        assert context.rows_used == 900
        weights, _ = answers.columns()
    assert len(weights) == len(answers) == 2700
    assert plan.seen["yannakakis.answer"] == 3
    assert context.rows_used == 2700


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
