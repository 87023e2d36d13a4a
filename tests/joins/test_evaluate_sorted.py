"""The columnar terminal: ``evaluate_sorted`` against ``evaluate`` + keyed sort.

One generative differential test (both kernel backends) pins the contract
the pivoting loop relies on — position for position, ties included, the
weight-sorted columns are ``sorted(evaluate(...), key=ranking.weight_of)`` —
and the guardrail tests pin what the runtime layer relies on: one
``yannakakis.answer`` checkpoint per tree level, charged the candidates that
level adds, raising the typed errors from inside the enumeration.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.exceptions import BudgetExceededError, ExecutionCancelledError
from repro.joins.message_passing import MaterializedTree
from repro.joins.yannakakis import evaluate, evaluate_sorted
from repro.kernels import active_backend, set_backend
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken, ExecutionContext
from repro.runtime.context import set_fault_hook
from repro.testing import FaultPlan, InjectedFault, inject_faults


def available_backends() -> list[str]:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return ["python"]
    return ["python", "numpy"]


@contextmanager
def backend(name):
    previous = active_backend().name
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


# 0, 0.0 and -0.0 hash alike (they join) but are different objects with
# different reprs; 2 and 2.0 likewise — so "same value" is not enough, the
# columns must carry the very object evaluate() would have put in the dict.
VALUES = st.sampled_from([0, 0.0, -0.0, 1, 2, 2.0, -1.5, 0.5])
ROWS = st.lists(st.tuples(VALUES, VALUES), max_size=8)


@st.composite
def join_instances(draw):
    """A random acyclic join (path / star / hierarchy, 2-5 atoms) over tiny,
    duplicate-heavy relations — dangling rows and empty joins included —
    optionally with a cartesian edge, an ``R(x, x)`` atom and a self-join."""
    shape = draw(st.sampled_from(["path", "star", "hierarchy"]))
    atoms = [("R0", ("v0", "v1"))]
    for i in range(1, draw(st.integers(1, 3)) + 1):
        if shape == "path":
            shared = f"v{i}"
        elif shape == "star":
            shared = "v0"
        else:
            shared = draw(st.sampled_from([v for _, pair in atoms for v in pair]))
        atoms.append((f"R{i}", (shared, f"v{i + 1}")))
    if draw(st.booleans()):  # self-join: two atoms over one relation
        atoms[1] = ("R0", atoms[1][1])
    if draw(st.booleans()):  # repeated variable inside one atom
        atoms.append(("D", ("v1", "v1")))
    relations = [
        Relation(name, ("a0", "a1"), draw(ROWS))
        for name in sorted({name for name, _ in atoms})
    ]
    if len(atoms) < 5 and draw(st.booleans()):  # cartesian edge
        atoms.append(("C", ("c",)))
        singles = draw(st.lists(VALUES, max_size=3))
        relations.append(Relation("C", ("a0",), [(value,) for value in singles]))
    query = JoinQuery([Atom(name, variables) for name, variables in atoms])
    db = Database(relations)
    weighted = draw(
        st.lists(st.sampled_from(sorted(query.variables)), min_size=1, unique=True)
    )
    kind = draw(st.sampled_from(["sum", "sum-custom", "min", "max", "lex"]))
    ranking = {
        "sum": lambda: SumRanking(weighted),
        "sum-custom": lambda: SumRanking(weighted, {weighted[0]: lambda v: 1 - 2.5 * v}),
        "min": lambda: MinRanking(weighted),
        "max": lambda: MaxRanking(weighted),
        "lex": lambda: LexRanking(weighted),
    }[kind]()
    return query, db, ranking


@settings(max_examples=120, deadline=None)
@given(join_instances())
def test_columns_equal_evaluate_then_sort_at_every_position(instance):
    query, db, ranking = instance
    reference = sorted(evaluate(query, db), key=ranking.weight_of)
    keep = set(sorted(query.variables)[::2])
    for name in available_backends():
        with backend(name):
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
def fanout_instance():
    """30 x 30 rows on one join key and a third level: 900, then 2700."""
    query = JoinQuery(
        [Atom("R", ("x", "k")), Atom("S", ("k", "y")), Atom("T", ("k", "z"))]
    )
    db = Database(
        [
            Relation("R", ("a", "b"), [(i, 0) for i in range(30)]),
            Relation("S", ("a", "b"), [(0, i) for i in range(30)]),
            Relation("T", ("a", "b"), [(0, i) for i in range(3)]),
        ]
    )
    return query, db, SumRanking(["x", "y"])


@contextmanager
def at_checkpoint(name, occurrence, action):
    """Run ``action`` right before the given occurrence of a checkpoint (the
    fault hook fires before the ambient context checks its limits)."""
    seen = 0

    def hook(observed):
        nonlocal seen
        if observed == name:
            seen += 1
            if seen == occurrence:
                action()

    previous = set_fault_hook(hook)
    try:
        yield
    finally:
        set_fault_hook(previous)


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
