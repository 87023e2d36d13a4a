"""The per-edge segmented pivot pass against the per-group one it replaced.

``reference_select_pivot`` below is the old body of ``select_pivot`` — one
``weighted_median`` call per join group, one ``dict`` per row — kept as the
reference.  A generative differential test pins that
the whole-column pass picks the very same pivot, object for object; unit
tests pin ``segmented_weighted_median`` against the scalar routine run group
by group; guardrail tests pin what the runtime layer relies on: the rows
charged at ``pivot.node`` / ``pivot.median`` and the typed errors raised
from inside the pass.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import materialize_quantile
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.exceptions import (
    BudgetExceededError,
    EmptyResultError,
    ExecutionCancelledError,
)
from repro.joins.counting import subtree_counts
from repro.joins.message_passing import MaterializedTree
from repro.pivot.pivot_selection import PivotResult, select_pivot
from repro.pivot.weighted_median import segmented_weighted_median, weighted_median
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.lex import LexRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken, ExecutionContext, checkpoint
from repro.testing import FaultPlan, InjectedFault, inject_faults

from tests.conftest import (
    VALUES,
    at_checkpoint,
    fanout_instance,
    join_instances,
    trimming,
)


def reference_select_pivot(query, db, ranking, tree=None) -> PivotResult:
    """``select_pivot`` as it was: Algorithm 2 run literally."""
    if tree is None:
        tree = MaterializedTree(query, db)
    counts = subtree_counts(tree)
    total = sum(counts[tree.root])
    if total == 0:
        raise EmptyResultError("cannot select a pivot: the query has no answers")

    weight_cache = {}

    def weight_key(assignment):
        entry = weight_cache.get(id(assignment))
        if entry is None:
            entry = (assignment, ranking.weight_of(assignment))
            weight_cache[id(assignment)] = entry
        return entry[1]

    pivots = {}
    c_value = {}
    for node in tree.nodes_bottom_up():
        rows = tree.rows(node)
        checkpoint("pivot.node", rows=len(rows))
        node_counts = counts[node]
        node_pivots = [
            tree.assignment(node, row) if node_counts[i] > 0 else None
            for i, row in enumerate(rows)
        ]
        children = tree.children(node)
        node_c = 1.0
        for child in children:
            node_c *= c_value[child] / 2.0
        for child in children:
            groups = tree.child_groups(node, child)
            child_counts = counts[child]
            child_pivots = pivots[child]
            group_pivot = {}
            for key, indices in groups.items():
                live = [i for i in indices if child_counts[i] > 0]
                if not live:
                    continue
                group_pivot[key] = weighted_median(
                    [child_pivots[i] for i in live],
                    [child_counts[i] for i in live],
                    key=weight_key,
                )
            for index, row in enumerate(rows):
                if node_pivots[index] is None:
                    continue
                key = tree.parent_group_key(node, row, child)
                if key not in group_pivot:
                    node_pivots[index] = None
                    continue
                merged = dict(node_pivots[index])
                merged.update(group_pivot[key])
                node_pivots[index] = merged
        pivots[node] = node_pivots
        c_value[node] = node_c

    root = tree.root
    live_indices = [i for i, count in enumerate(counts[root]) if count > 0]
    final = weighted_median(
        [pivots[root][i] for i in live_indices],
        [counts[root][i] for i in live_indices],
        key=weight_key,
    )
    return PivotResult(
        assignment=dict(final),
        weight=ranking.weight_of(final),
        c=c_value[root] / 2.0,
        total_answers=total,
    )


def assert_same_pivot(query, db, ranking):
    try:
        reference = reference_select_pivot(query, db, ranking)
    except EmptyResultError:
        reference = None
    if reference is None:
        with pytest.raises(EmptyResultError):
            select_pivot(query, db, ranking)
        return
    pivot = select_pivot(query, db, ranking)
    assert pivot.assignment == reference.assignment
    # repr compares key order and tells 0 from 0.0 from -0.0.
    assert repr(pivot.assignment) == repr(reference.assignment)
    assert repr(pivot.weight) == repr(reference.weight)
    assert pivot.c == reference.c
    assert pivot.total_answers == reference.total_answers


# ---------------------------------------------------------------------- #
# Differential: the same pivot, object for object
# ---------------------------------------------------------------------- #
# Floats whose sum depends on the order of the additions — (0.1 + 0.2) + 0.3
# is not 0.1 + (0.2 + 0.3) but 0.3 + 0.3 is 0.6 either way, and 1e16 absorbs
# a 1 added to it first — so a pivot weight folded in any order but
# weight_of's ties, and so picks, differently.
REASSOCIATING = [0.0, 0.1, 0.2, 0.3, 0.5, 0.6]
ABSORBING = VALUES + [1e16, -1e16]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        join_instances(), join_instances(REASSOCIATING), join_instances(ABSORBING)
    )
)
def test_same_pivot_as_the_per_group_reference(instance):
    assert_same_pivot(*instance)


def test_weights_fold_in_ranking_order_from_the_identity():
    # Root rows 0 and 1 weigh (0.1 + 0.2) + 0.3 = 0.6000000000000001 and
    # (0.3 + 0.3) + 0.0 = 0.6: row 1 is the lower median.  Folded from the
    # other end both weigh 0.6 and the tie would go to row 0.
    query = JoinQuery([Atom("R", ("a", "b")), Atom("S", ("b", "c"))])
    db = Database(
        [
            Relation("R", ("a0", "a1"), [(0.1, 0.2), (0.3, 0.3)]),
            Relation("S", ("a0", "a1"), [(0.2, 0.3), (0.3, 0.0)]),
        ]
    )
    ranking = SumRanking(["a", "b", "c"])
    assert_same_pivot(query, db, ranking)
    assert select_pivot(query, db, ranking).assignment == {"a": 0.3, "b": 0.3, "c": 0.0}


def test_row_alive_at_its_node_but_dead_through_one_child():
    # R's (1, 7) joins S but not T, (2, 8) joins both; a variable (k) is
    # shared by the root row and both children, as 0 / 0.0 / -0.0.
    query = JoinQuery(
        [Atom("R", ("k", "x")), Atom("S", ("k", "y")), Atom("T", ("k", "z"))]
    )
    db = Database(
        [
            Relation("R", ("a", "b"), [(1, 7), (0, 8), (-0.0, 9), (3, 1)]),
            Relation("S", ("a", "b"), [(1, 5), (0.0, 6), (0, 4), (3, 2)]),
            Relation("T", ("a", "b"), [(-0.0, 1), (0, 2), (0.0, 3)]),
        ]
    )
    rankings = [
        SumRanking(["k", "x", "y", "z"]),
        LexRanking(["z", "k"]),
        # Weighs k by the object it is: the last child's, as dict.update leaves it.
        SumRanking(["k", "z"], {"k": lambda v: 10 * len(repr(v))}),
    ]
    for ranking in rankings:
        assert_same_pivot(query, db, ranking)


def test_deep_path_keeps_the_first_of_equal_weights_at_every_level():
    # Every weight ties: each median must return its group's first live row.
    atoms = [Atom(f"R{i}", (f"v{i}", f"v{i + 1}")) for i in range(5)]
    relations = [
        Relation(f"R{i}", ("a", "b"), [(0, 0), (0.0, 0.0), (-0.0, 0), (0, -0.0)])
        for i in range(5)
    ]
    query, db = JoinQuery(atoms), Database(relations)
    assert_same_pivot(query, db, SumRanking([f"v{i}" for i in range(6)]))
    assert_same_pivot(query, db, LexRanking(["v5", "v0"]))


# ---------------------------------------------------------------------- #
# The per-edge routine against the scalar one, group by group
# ---------------------------------------------------------------------- #
def medians_group_by_group(group_ids, keys, multiplicities, num_groups):
    winners = []
    for group in range(num_groups):
        members = [i for i, g in enumerate(group_ids) if g == group]
        if any(multiplicities[i] > 0 for i in members):
            winners.append(
                weighted_median(
                    members, [multiplicities[i] for i in members], key=keys.__getitem__
                )
            )
        else:
            winners.append(len(group_ids))
    return winners


def assert_medians_match(group_ids, keys, multiplicities, num_groups):
    expected = medians_group_by_group(group_ids, keys, multiplicities, num_groups)
    assert segmented_weighted_median(group_ids, keys, multiplicities, num_groups) == expected
    return expected


HUGE = 2**63 + 11


@pytest.mark.parametrize(
    "group_ids, keys, multiplicities, num_groups",
    [
        pytest.param([0, 0, 1, 1, 1], [5.0, 1.0, 2.0, 9.0, 4.0], [1, 0, 3, 0, 1], 2,
                     id="zero-count members"),
        pytest.param([2, 0, 1], [3.0, 1.0, 2.0], [4, 5, 6], 3,
                     id="single-member groups"),
        pytest.param([0, 0, 0, 1, 1], [3.0, 1.0, 2.0, 1.0, 2.0],
                     [HUGE, 1, HUGE, 2**64, 2**64 + 1], 2,
                     id="counts above 2**63"),
        pytest.param([4, 1, 4, 1, 4], [2.0, 5.0, 1.0, 4.0, 3.0], [1, 1, 1, 1, 1], 6,
                     id="non-contiguous group ids"),
        pytest.param([0] * 6, [4.0, 2.0, 6.0, 2.0, 5.0, 1.0], [1, 2, 1, 2, 1, 1], 1,
                     id="one group only"),
        pytest.param([0, 0, 1, 0, 1], [(1.0, 2.0), (0.0, 9.0), (1.0, 0.0), (1.0, 2.0), (1.0, 0.0)],
                     [1, 1, 2, 3, 2], 2,
                     id="LEX tuple keys"),
        pytest.param([0, 0, 0, 1, 1], [2.0, 2, 1, 0, -0.0], [1, 5, 1, 1, 1], 2,
                     id="int and float keys that compare equal"),
        pytest.param([], [], [], 0, id="nothing at all"),
        pytest.param([], [], [], 2, id="groups without members"),
    ],
)
def test_segmented_median_cases(group_ids, keys, multiplicities, num_groups):
    assert_medians_match(group_ids, keys, multiplicities, num_groups)


def test_an_all_dead_group_gets_the_out_of_range_sentinel():
    assert assert_medians_match([0, 1, 1, 2], [1.0, 2.0, 3.0, 4.0], [2, 0, 0, 1], 3) == [0, 4, 3]


def test_all_equal_keys_go_to_the_first_in_input_order():
    assert assert_medians_match([0, 1, 0, 1, 0], [7.0] * 5, [1, 2, 3, 4, 5], 2) == [0, 1]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, -3, 0.1]),
            st.sampled_from([0, 0, 1, 2, 7, HUGE]),
        ),
        max_size=40,
    )
)
def test_segmented_median_equals_scalar_medians(members):
    group_ids = [group for group, _, _ in members]
    keys = [key for _, key, _ in members]
    multiplicities = [count for _, _, count in members]
    assert_medians_match(group_ids, keys, multiplicities, 6)


def test_segmented_median_over_thousands_of_members():
    # 4000 members in 50 groups (far past what the generative test draws);
    # tie-heavy keys and two counts near and above 2**63.
    size = 4000
    group_ids = [(i * 7919) % 50 for i in range(size)]
    keys = [float((i * 31) % 17) for i in range(size)]
    multiplicities = [(i * 13) % 5 for i in range(size)]
    multiplicities[17], multiplicities[1234] = HUGE, 2**62
    assert_medians_match(group_ids, keys, multiplicities, 50)


# ---------------------------------------------------------------------- #
# Guardrails: rows charged, typed errors from inside the pass
# ---------------------------------------------------------------------- #
def pivoting_instance():
    """``fanout_instance`` with its tree built and counted: what is charged
    afterwards is pivot selection's own."""
    query, db, ranking = fanout_instance()
    tree = MaterializedTree(query, db)
    subtree_counts(tree)
    return query, db, ranking, tree


@pytest.mark.faults
def test_rows_charged_equal_the_reference_with_one_median_per_edge():
    query, db, ranking, tree = pivoting_instance()
    reference_plan = FaultPlan()
    with inject_faults(reference_plan), ExecutionContext() as reference:
        reference_select_pivot(query, db, ranking, tree=tree)
    plan = FaultPlan()
    with inject_faults(plan), ExecutionContext() as context:
        select_pivot(query, db, ranking, tree=tree)
    assert context.rows_used == reference.rows_used == 2 * (30 + 30 + 3)
    assert set(plan.seen) == set(reference_plan.seen) == {"pivot.node", "pivot.median"}
    assert plan.seen["pivot.node"] == reference_plan.seen["pivot.node"] == 3
    assert plan.seen["pivot.median"] == 2 + 1  # two edges and the root
    assert context.checkpoints == 6


@pytest.mark.parametrize("max_rows, name", [(20, "pivot.node"), (70, "pivot.median")])
def test_row_budget_trips_inside_pivot_selection(max_rows, name):
    query, db, ranking, tree = pivoting_instance()
    with ExecutionContext(max_rows=max_rows):
        with pytest.raises(BudgetExceededError) as excinfo:
            select_pivot(query, db, ranking, tree=tree)
    assert excinfo.value.budget == "rows"
    assert excinfo.value.checkpoint == name


def test_deadline_expiring_before_a_median_raises_timeout():
    query, db, ranking, tree = pivoting_instance()
    now = [0.0]
    with at_checkpoint("pivot.median", 2, lambda: now.__setitem__(0, 10.0)):
        with ExecutionContext(timeout=1.0, clock=lambda: now[0]):
            with pytest.raises(BudgetExceededError) as excinfo:
                select_pivot(query, db, ranking, tree=tree)
    assert excinfo.value.budget == "timeout"
    assert excinfo.value.checkpoint == "pivot.median"


def test_cancellation_between_nodes_raises_cancelled():
    query, db, ranking, tree = pivoting_instance()
    token = CancellationToken()
    with at_checkpoint("pivot.node", 2, token.cancel):
        with ExecutionContext(cancellation=token):
            with pytest.raises(ExecutionCancelledError) as excinfo:
                select_pivot(query, db, ranking, tree=tree)
    assert excinfo.value.checkpoint == "pivot.node"


@pytest.mark.faults
def test_fault_in_a_median_leaves_no_step_cache_entry():
    query, db, ranking = fanout_instance()
    prepared = trimming(PreparedQuery(query, db, ranking, termination_factor=1))
    with inject_faults(FaultPlan().arm("pivot.median", after=1)):
        with pytest.raises(InjectedFault):
            prepared.quantile(0.5)
    assert prepared.pivot_cache_size == 0
    result = prepared.quantile(0.5)
    oracle = materialize_quantile(query, db, ranking, phi=0.5)
    assert (result.weight, result.target_index) == (oracle.weight, oracle.target_index)
    assert prepared.pivot_cache_size >= 1
