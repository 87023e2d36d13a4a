"""``CoverCounting``, the exact SUM source over a cover pair R–S.

Every step's lt and gt counts against a nested-loop count of the answers
whose cover fold ``w_R + w_S`` lies inside the handle; both parts at most
three quarters of the candidates (Section 4's c = 1/4); the terminal holding
exactly the handle's answers in fold order; a fault at a step, decode or
terminal checkpoint leaving no cache entry behind; and the byte estimate
charging what the source holds.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.baselines import materialize_quantile
from repro.core.quantile import CoverCounting
from repro.engine import PreparedQuery
from repro.joins.tree_cache import TreeCache
from repro.query.classify import find_adjacent_cover
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.sum import SumRanking
from repro.ranking.tuple_weights import owned_variables, variable_to_atom_assignment
from repro.testing import FaultPlan, InjectedFault, inject_faults

from tests.conftest import fanout_instance, join_instances

PHIS = [0.1, 0.5, 0.9]


def cover_folds(query, ranking, cover, answers):
    """Each answer's ``w_R + w_S``, each side folded like the source's."""
    pair = cover[1]
    mu = variable_to_atom_assignment(query, ranking.weighted_variables, list(pair))

    def side(answer, node):
        weights = (ranking.variable_weight(v, answer[v]) for v in owned_variables(mu, node))
        return reduce(add, weights, ranking.identity)

    return [side(answer, pair[0]) + side(answer, pair[1]) for answer in answers]


def inside(fold, handle):
    low, high = handle
    return (low is None or fold > low) and (high is None or fold < high)


@settings(max_examples=150, deadline=None)
@given(join_instances(kinds=("sum",), min_rows=1), st.data())
def test_each_step_counts_its_handle_and_keeps_at_most_three_quarters(instance, data):
    query, db, _ = instance
    query, db = ensure_canonical(query, db)
    # Weigh two atoms that share a variable, all or some of their variables.
    pairs = [(i, j) for i, j in combinations(range(len(query)), 2)
             if query[i].variable_set & query[j].variable_set]
    first, second = data.draw(st.sampled_from(pairs))
    every = sorted(query[first].variable_set | query[second].variable_set)
    weighted = data.draw(st.lists(st.sampled_from(every), min_size=2, unique=True))
    custom = {weighted[0]: lambda v: 1 - 2.5 * v} if data.draw(st.booleans()) else None
    ranking = SumRanking(weighted, custom)
    cover = find_adjacent_cover(query, frozenset(weighted))
    assume(cover is not None and len(cover[1]) == 2)
    answers = query.answers_brute_force(db)
    assume(answers)
    folds = cover_folds(query, ranking, cover, answers)
    source = CoverCounting(query, db, ranking, TreeCache(), len(answers), cover)
    pending, steps = [source.root], 0
    while pending:
        handle = pending.pop()
        candidates = [fold for fold in folds if inside(fold, handle)]
        terminal = source.terminal(WeightInterval(), handle, query.variables)
        assert len(terminal) == len(candidates)
        picked = [terminal.select(position) for position in range(len(terminal))]
        assert all(query.satisfies(answer, db) for _, answer in picked)
        if len(candidates) < 2 or steps == 30:
            continue
        step = source.step(WeightInterval(), handle)
        steps += 1
        pivot = step.lt[1]
        assert (step.lt, step.gt) == ((handle[0], pivot), (pivot, handle[1]))
        assert step.count_lt == sum(fold < pivot for fold in candidates)
        assert step.count_gt == sum(fold > pivot for fold in candidates)
        assert 4 * max(step.count_lt, step.count_gt) <= 3 * len(candidates)
        assert query.satisfies(step.pivot_assignment, db)
        assert repr(step.pivot_weight) == repr(ranking.weight_of(step.pivot_assignment))
        pending += [step.lt, step.gt]


def test_a_cover_below_the_root_is_counted_on_one_tree_rooted_at_it(three_path):
    """(R2, R3) is below the base tree's root R1: one more tree, rooted at
    R2, where R1 is R2's other child and so part of ``up``."""
    query, db = three_path
    ranking = SumRanking(["x2", "x3", "x4"])
    prepared = PreparedQuery(query, db, ranking, termination_factor=1)
    results = prepared.quantiles(PHIS)
    source = prepared._sources["exact-pivot"]
    _, base, tree, _ = source._build()
    assert (base.root, tree.root) == (0, 1) and sorted(tree.children(1)) == [0, 2]
    for phi, result in zip(PHIS, results):
        oracle = materialize_quantile(query, db, ranking, phi=phi)
        assert (result.weight, result.target_index) == (oracle.weight, oracle.target_index)
        assert repr(result.weight) == repr(ranking.weight_of(result.assignment))


def test_estimated_bytes_charges_the_arrays_and_the_decoded_answers():
    query, db, ranking = fanout_instance()
    prepared = PreparedQuery(query, db, ranking, termination_factor=1).prepare()
    source = prepared._sources["exact-pivot"]
    assert isinstance(source, CoverCounting)
    assert source.estimated_bytes() == 0  # built on the first step, not by prepare()
    prepared.quantile(0.5)
    rows, _, _, counts = source._build()
    arrays = 32 * (2 * len(rows) + sum(map(len, counts.values())))
    assert source.estimated_bytes() == arrays + 256 * len(source._decoded) > arrays


@pytest.mark.faults
@pytest.mark.parametrize("name", ["cover.ranges", "cover.decode", "cover.terminal"])
def test_a_fault_in_a_step_decode_or_terminal_leaves_no_cache_entry(name):
    query, db, ranking = fanout_instance()
    clean = PreparedQuery(query, db, ranking, termination_factor=4)
    expected = repr(clean.quantile(0.5))
    prepared = PreparedQuery(query, db, ranking, termination_factor=4)
    with inject_faults(FaultPlan().arm(name)) as plan:
        with pytest.raises(InjectedFault):
            prepared.quantile(0.5)
    assert plan.fired == [(name, 1)]
    [(steps, answers)] = prepared._caches.values()
    assert not answers
    source = prepared._sources["exact-pivot"]
    if name != "cover.terminal":  # the first step faulted: nothing memoized
        assert not steps and not source._decoded
    assert repr(prepared.quantile(0.5)) == expected
    assert prepared.pivot_cache_size == clean.pivot_cache_size
