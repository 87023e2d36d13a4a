"""``CoverCounting``, the exact SUM source over a cover pair R–S.

Every step's lt and gt counts against a nested-loop count of the answers
whose cover fold ``w_R + w_S`` lies inside the handle; both parts at most
three quarters of the candidates (Section 4's c = 1/4); the terminal holding
exactly the handle's answers in fold order; every handle's ranges carried
from its parent's split equal to a fresh bisection of its bounds, and a
batch answering alike however few of them the cap keeps; a fault at a step,
decode or terminal checkpoint leaving no cache entry behind; and the byte
estimate charging what the source holds.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from operator import add

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from benchmarks.e2e.workloads import PHI_ORDER, SPECS, generate_rows
from repro.baselines import materialize_quantile
from repro.core import quantile
from repro.core.quantile import CoverCounting, run_pivoting
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine, PreparedQuery
from repro.joins.tree_cache import TreeCache
from repro.query.classify import find_adjacent_cover
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.sum import SumRanking
from repro.ranking.tuple_weights import owned_variables, variable_to_atom_assignment
from repro.testing import FaultPlan, InjectedFault, inject_faults

from tests.conftest import fanout_instance, join_instances

PHIS = [0.1, 0.5, 0.9]
PHI19 = [(i + 1) / 20 for i in range(19)]


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


@st.composite
def cover_sums(draw):
    """A drawn join, canonical, with a SUM over two atoms sharing a
    variable (all or some of their variables) that a cover pair holds,
    its cover and its answers (at least one)."""
    query, db, _ = draw(join_instances(kinds=("sum",), min_rows=1))
    query, db = ensure_canonical(query, db)
    pairs = [(i, j) for i, j in combinations(range(len(query)), 2)
             if query[i].variable_set & query[j].variable_set]
    first, second = draw(st.sampled_from(pairs))
    every = sorted(query[first].variable_set | query[second].variable_set)
    weighted = draw(st.lists(st.sampled_from(every), min_size=2, unique=True))
    custom = {weighted[0]: lambda v: 1 - 2.5 * v} if draw(st.booleans()) else None
    ranking = SumRanking(weighted, custom)
    cover = find_adjacent_cover(query, frozenset(weighted))
    assume(cover is not None and len(cover[1]) == 2)
    answers = query.answers_brute_force(db)
    assume(answers)
    return query, db, ranking, cover, answers


# Most drawn joins have no two-atom cover or no answer: the filter is the point.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(cover_sums())
def test_each_step_counts_its_handle_and_keeps_at_most_three_quarters(drawn):
    query, db, ranking, cover, answers = drawn
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


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(cover_sums())
def test_a_batch_carries_each_handle_it_reaches_as_a_fresh_bisection(drawn):
    """Every handle a 19-φ batch steps into holds the ranges its parent's
    split cut, and they are what bisecting its bounds over whole groups
    gives (``_bisected``, the miss path)."""
    query, db, ranking, cover, answers = drawn
    source = CoverCounting(query, db, ranking, TreeCache(), len(answers), cover)
    steps = {}
    for phi in PHI19:
        run_pivoting(source, phi, None, query.variables, 1, step_cache=steps)
    reached = {handle for step in steps.values() for handle in (step.lt, step.gt)}
    assert reached == set(source._carried)
    rows = source._build()[0]
    for handle, carried in source._carried.items():
        assert carried == CoverCounting._bisected(handle, rows), handle


def counted_bisections(monkeypatch):
    """The bounded handles ``CoverCounting`` bisects over whole groups from
    now on (the root's ranges are whole groups: it bisects nothing)."""
    calls, bisected = [], CoverCounting._bisected

    def counting(handle, rows):
        if handle != (None, None):
            calls.append(handle)
        return bisected(handle, rows)

    monkeypatch.setattr(CoverCounting, "_bisected", staticmethod(counting))
    return calls


def three_path_cover():
    """Fifty rows a relation, a SUM over R2 and R3."""
    rng = random.Random(5)
    query = JoinQuery.parse("R1(x1, x2), R2(x2, x3), R3(x3, x4)")
    db = Database([
        Relation(name, ("a", "b"), [(rng.randrange(8), rng.randrange(8)) for _ in range(50)])
        for name in ("R1", "R2", "R3")
    ])
    return query, db, SumRanking(["x2", "x3", "x4"])


@pytest.mark.parametrize("limit", [0, 1, 7])
@pytest.mark.parametrize("instance", [fanout_instance, three_path_cover])
def test_a_capped_carry_answers_like_an_uncapped_one(monkeypatch, instance, limit):
    """Past the cap a handle's ranges are bisected afresh: the same answers,
    steps and terminals (cap 0 carries nothing)."""
    query, db, ranking = instance()
    uncapped = PreparedQuery(query, db, ranking, termination_factor=1)
    expected = [repr(result) for result in uncapped.quantiles(PHI19)]
    assert len(uncapped._sources["exact-pivot"]._carried) > 7
    monkeypatch.setattr(quantile, "CARRIED_RANGES_LIMIT", limit)
    calls = counted_bisections(monkeypatch)
    capped = PreparedQuery(query, db, ranking, termination_factor=1)
    assert [repr(result) for result in capped.quantiles(PHI19)] == expected
    assert capped.pivot_cache_size == uncapped.pivot_cache_size
    source = capped._sources["exact-pivot"]
    assert len(source._carried) == limit and calls
    rows = source._build()[0]
    assert all(ranges == CoverCounting._bisected(h, rows) for h, ranges in source._carried.items())


@pytest.mark.parametrize("seed", [1823, 7])
def test_a_cold_batch_on_the_bench_path_rows_bisects_no_whole_group(monkeypatch, seed):
    """``path_sum_cold``'s batch: every handle it steps or ends in was carried."""
    spec = SPECS["path_sum_cold"]
    db = Database([Relation(name, schema, rows) for name, (schema, rows) in generate_rows(spec, seed).items()])
    calls = counted_bisections(monkeypatch)
    prepared = Engine(db).prepare(spec.query, spec.rankings[0])
    prepared.quantile(PHI_ORDER[0])
    prepared.quantiles(PHI_ORDER[1:])
    assert isinstance(prepared._sources["exact-pivot"], CoverCounting)
    assert prepared.pivot_cache_size > 0 and calls == []


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
    carried = 64 * sum(map(len, source._carried.values()))
    assert source.estimated_bytes() == arrays + 256 * len(source._decoded) + carried
    assert source._decoded and carried > 0


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


@pytest.mark.faults
@pytest.mark.parametrize("name", ["cover.ranges", "cover.decode"])
def test_a_fault_on_a_carried_handle_leaves_no_step_entry(monkeypatch, name):
    """The second step reads the ranges the root's split carried: a fault
    there memoizes no step for it, and the retry reads the same carried
    ranges, bisecting nothing, into the clean run's caches."""
    query, db, ranking = fanout_instance()
    clean = PreparedQuery(query, db, ranking, termination_factor=1)
    expected = [repr(result) for result in clean.quantiles(PHIS)]
    prepared = PreparedQuery(query, db, ranking, termination_factor=1)
    with inject_faults(FaultPlan().arm(name, after=1)) as plan:
        with pytest.raises(InjectedFault):
            prepared.quantile(PHIS[0])
    assert plan.fired == [(name, 2)]
    [(steps, answers)] = prepared._caches.values()
    source = prepared._sources["exact-pivot"]
    [root] = steps.values()
    assert list(steps) == [WeightInterval()] and not answers
    assert set(source._carried) == {root.lt, root.gt}
    calls = counted_bisections(monkeypatch)
    assert [repr(result) for result in prepared.quantiles(PHIS)] == expected
    assert calls == [] and prepared.pivot_cache_size == clean.pivot_cache_size
    assert source._carried == clean._sources["exact-pivot"]._carried
