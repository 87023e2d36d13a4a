"""Exact MIN/MAX/LEX: key bisection over counts on the base tree.

* Every φ and selection against the oracle, over hostile values and LEX of
  arity 1-3 (also under a key that maps distinct values to one key), is
  ``tests/test_lattice.py``.
* A replay (``PreparedQuery.cached``) computes no probe.
* A probe interrupted by a fault, a budget or a cancellation leaves no memo
  entry behind: the retry equals a fresh run.  So does a fault building a
  node's sorted groups, and one in a tie's witness walk or in a count whose
  frontier sums it reads.
* The memo, the counts' frontier sums and the sorted groups are charged by
  ``estimated_bytes``.
"""

from __future__ import annotations

import pytest

from repro.core.quantile import WeightBisection
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine
from repro.exceptions import BudgetExceededError, ExecutionCancelledError
from repro.runtime import CancellationToken, ExecutionContext
from repro.testing import FaultPlan, InjectedFault, inject_faults
from repro.workloads.path import path_workload

from tests.conftest import at_checkpoint

PHIS = [(i + 1) / 20 for i in range(19)]
PATH_QUERY = "R1(x1, x2), R2(x2, x3), R3(x3, x4)"


@pytest.fixture(scope="module")
def path_db():
    return path_workload(3, 60, 6, seed=11).db


def fresh(db, ranking="max(x1, x4)", **knobs):
    return Engine(db).prepare(PATH_QUERY, ranking, termination_factor=1, **knobs)


def key(result):
    return repr((result.weight, result.target_index, result.assignment))


@pytest.mark.parametrize("ranking", ["min(x1, x2, x4)", "max(x1, x4)", "lex(x4, x2, x1)"])
def test_serial_exact_min_max_bisects(path_db, ranking):
    prepared = fresh(path_db, ranking)
    assert isinstance(prepared._ensure_source("exact-pivot"), WeightBisection)
    result = prepared.quantile(0.5)
    assert result.strategy == "exact-pivot" and result.exact and result.iterations


@pytest.mark.parametrize("ranking", ["min(x1, x2, x4)", "max(x1, x4)", "lex(x1, x4)"])
def test_a_replay_after_one_phi_computes_no_probe(path_db, ranking):
    prepared = fresh(path_db, ranking)
    warmed = prepared.quantile(0.5).target_index
    reference = fresh(path_db, ranking)
    answered = []
    with inject_faults(FaultPlan()) as plan:
        replays = [prepared.cached(index=i) for i in range(prepared.count())]
    assert set(plan.seen) <= {"quantile.iteration"}
    for index, replayed in enumerate(replays):
        if replayed is not None:
            expected = reference.selection(index)
            assert (replayed.weight, replayed.target_index) == (
                expected.weight, expected.target_index
            )
            answered.append(index)
    assert warmed in answered
    # Other targets of the warmed tie block are answered, targets that need
    # a probe nobody made are not.
    assert len(answered) > 1 and len(answered) < len(replays)


def interrupt_then_compare(db, ranking, interrupt):
    """Run a batch interrupted at every n-th probe, retry, compare."""
    reference = [key(r) for r in fresh(db, ranking).quantiles(PHIS)]
    prepared = fresh(db, ranking)
    interrupted = 0
    for occurrence in range(1, 25, 3):
        with pytest.raises((InjectedFault, BudgetExceededError, ExecutionCancelledError)):
            interrupt(prepared, occurrence)
        interrupted += 1
    assert interrupted
    source = prepared._ensure_source("exact-pivot")
    check = fresh(db, ranking)._ensure_source("exact-pivot")
    assert_whole(source._below, check)
    assert [key(r) for r in prepared.quantiles(PHIS)] == reference


def assert_whole(memo, check):
    """Every memoized count (and its frontier sums) equals a clean source's."""
    for path, entry in list(memo.items()):
        assert entry == (check.below(path), check._below[path][1])


@pytest.mark.faults
@pytest.mark.parametrize("ranking", ["max(x1, x4)", "lex(x4, x2, x1)"])
class TestInterruptedProbes:
    def test_a_fault_in_a_probe_leaves_no_trace(self, path_db, ranking):
        def interrupt(prepared, occurrence):
            plan = FaultPlan().arm("bisection.count", after=occurrence)
            with inject_faults(plan):
                prepared.quantiles(PHIS)

        interrupt_then_compare(path_db, ranking, interrupt)

    def test_a_budget_in_a_probe_leaves_no_trace(self, path_db, ranking):
        def interrupt(prepared, occurrence):
            with ExecutionContext(max_rows=60 * occurrence):
                prepared.quantiles(PHIS)

        interrupt_then_compare(path_db, ranking, interrupt)

    def test_a_cancellation_in_a_probe_leaves_no_trace(self, path_db, ranking):
        def interrupt(prepared, occurrence):
            token = CancellationToken()
            with ExecutionContext(cancellation=token):
                with at_checkpoint("bisection.count", occurrence, token.cancel):
                    prepared.quantiles(PHIS)

        interrupt_then_compare(path_db, ranking, interrupt)


@pytest.mark.faults
@pytest.mark.parametrize("ranking", ["min(x1, x2, x4)", "max(x1, x4)", "lex(x4, x2, x1)"])
def test_a_fault_building_sorted_groups_leaves_none_partial(path_db, ranking):
    """Fault every build of a node's sorted groups once, in turn: each fault
    leaves only whole entries behind, and the retry answers as a fresh run."""
    reference = [key(r) for r in fresh(path_db, ranking).quantiles(PHIS)]
    prepared = fresh(path_db, ranking)
    source = prepared._ensure_source("exact-pivot")
    check = fresh(path_db, ranking)._ensure_source("exact-pivot")
    faults = 0
    while True:
        try:
            # The build that faulted last time passes, the next one faults.
            with inject_faults(FaultPlan().arm("bisection.groups", after=min(faults, 1)), strict=False):
                results = prepared.quantiles(PHIS)
            break
        except InjectedFault:
            faults += 1
            assert faults < 10
            assert all(built == check._sorted(node) for node, built in source._groups.items())
    assert faults > 1 and len(source._groups) == faults
    assert [key(r) for r in results] == reference


def tie_paths(db, ranking):
    """The paths of the first, the median and the last answer's tie blocks
    (the first and last keys of ``W``: MIN/MAX decode those from a count of
    their own, not a memoized one)."""
    prepared = fresh(db, ranking)
    for index in (0, prepared.count() // 2, prepared.count() - 1):
        prepared.selection(index)
    return sorted(prepared._ensure_source("exact-pivot")._ties)


@pytest.mark.faults
@pytest.mark.parametrize("ranking", ["min(x1, x2, x4)", "max(x1, x4)", "lex(x4, x2, x1)"])
def test_a_fault_decoding_a_tie_leaves_no_trace(path_db, ranking):
    """A fault in a count whose frontier sums a tie reads leaves no memo
    entry; one in the witness walk leaves no tie (the counts before it are
    whole); the retry decodes what a clean source does."""
    paths = tie_paths(path_db, ranking)
    assert len(paths) == 3
    for path in paths:
        source = fresh(path_db, ranking)._ensure_source("exact-pivot")
        check = fresh(path_db, ranking)._ensure_source("exact-pivot")
        with pytest.raises(InjectedFault), inject_faults(FaultPlan().arm("bisection.count", after=1)):
            source.tie(path)
        assert not source._ties and not source._below
        with pytest.raises(InjectedFault), inject_faults(FaultPlan().arm("bisection.witness", after=2)):
            source.tie(path)
        assert not source._ties
        assert_whole(source._below, check)
        assert repr(source.tie(path)) == repr(check.tie(path))


@pytest.mark.parametrize("ranking", ["max(x1, x4)", "lex(x4, x2, x1)"])
def test_estimated_bytes_grow_with_the_memo(path_db, ranking):
    prepared = fresh(path_db, ranking)
    before = prepared.estimated_bytes()
    prepared.quantile(0.5)
    once = prepared.estimated_bytes()
    source = prepared._ensure_source("exact-pivot")
    memo = source.estimated_bytes()
    prepared.quantiles(PHIS)
    assert before < once < prepared.estimated_bytes()
    assert 0 < memo < source.estimated_bytes()
    # The sorted groups are charged: a row, and its child group ids there.
    grouped = sum(
        len(live) * (1 + len(aligned)) for groups, aligned in source._groups.values() for live, _, _ in groups
    )
    charged = source.estimated_bytes()
    source._groups.clear()
    assert grouped and charged - source.estimated_bytes() == 24 * grouped
    # So are the counts' frontier sums, 8 bytes a stored group sum.
    summed = sum(len(sums) for _, frontier in source._below.values() for sums in frontier.values())
    charged = source.estimated_bytes()
    for path, (below, _) in list(source._below.items()):
        source._below[path] = (below, {})
    assert summed and charged - source.estimated_bytes() == 8 * summed


@pytest.mark.parametrize("ranking_spec", ["lex(x1, x2)", "lex(x2, x1, x3)"])
@pytest.mark.parametrize("infinity", [float("-inf"), float("inf")])
def test_every_selection_over_infinite_values_equals_the_oracle(ranking_spec, infinity):
    """Regression: ±inf keys are ordinary keys.  (Algorithm 1's LEX trim once
    read a ±inf threshold component as "unbounded from here on": 23 (and
    106) of these 330 selections returned a wrong weight.)"""
    values = [0, 0.0, -0.0, True, 1, 2, 2.0, -1.5, 0.5, 2**63 + 11, infinity]
    db = Database(
        [
            Relation(f"R{arm}", ("x0", f"x{arm}"),
                     [((i + arm) % 2, value) for i, value in enumerate(values)])
            for arm in (1, 2, 3)
        ]
    )
    query = "R1(x0, x1), R2(x0, x2), R3(x0, x3)"
    oracle = Engine(db).prepare(query, ranking_spec, strategy="materialize")
    bisection = Engine(db).prepare(query, ranking_spec, termination_factor=1)
    assert bisection.count() == 330
    assert [bisection.selection(i).weight for i in range(330)] == [
        oracle.selection(i).weight for i in range(330)
    ]
