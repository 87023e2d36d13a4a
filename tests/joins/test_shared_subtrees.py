"""Node and subtree state shared between the trees of one ``TreeCache``.

Databases that hold some relations by identity (a restricted root, another
rooting of the same join) build trees through one cache that share what
they know about those relations.  The
differential test pins that sharing never changes an answer; the crafted
tests pin what is shared, what is not, when it dies, and that a fault leaves
nothing partial behind.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.exceptions import EmptyResultError
from repro.joins.counting import count_answers
from repro.joins.message_passing import MaterializedTree, StateTable
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import evaluate_sorted
from repro.pivot import pivot_selection, select_pivot
from repro.pivot.weighted_median import segmented_weighted_median
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.join_tree import build_join_tree
from repro.query.rewrite import ensure_canonical
from repro.ranking.minmax import MinRanking
from repro.ranking.sum import SumRanking
from repro.runtime import ExecutionContext
from repro.runtime.context import set_fault_hook
from repro.testing import FaultPlan, InjectedFault, inject_faults

from tests.conftest import RANKING_KINDS, join_instances

PATH = JoinQuery(
    [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")), Atom("R3", ("x3", "x4"))]
)


def path_db():
    return Database(
        [
            Relation("R1", ("x1", "x2"), [(i * 7 % 23, i % 5) for i in range(40)]),
            Relation("R2", ("x2", "x3"), [(i % 5, i * 3 % 4) for i in range(40)]),
            Relation("R3", ("x3", "x4"), [(i % 4, i * 11 % 31) for i in range(40)]),
        ]
    )


def restricted(db, name, dropped):
    """``db`` without the rows of relation ``name`` at the ``dropped``
    positions; every other relation is ``db``'s own, by identity."""
    dropped = set(dropped)
    return Database(
        [
            Relation(r.name, r.schema, [row for i, row in enumerate(r.rows) if i not in dropped])
            if r.name == name else r
            for r in db
        ]
    )


#: The R1 rows each of three variants of ``path_db()`` drops: they differ in R1 only.
ROOTS = [range(0, 40, 3), range(1, 40, 3), range(0, 20)]


def observed(query, db, ranking, tree):
    """Everything the pivoting loop reads off a tree, reprs where key order
    and 0 / 0.0 / -0.0 matter."""
    try:
        pivot = repr(select_pivot(query, db, ranking, tree=tree))
    except EmptyResultError:
        pivot = "empty"
    answers = evaluate_sorted(query, db, ranking, tree=tree)
    picks = [answers.select(position) for position in range(len(answers))]
    return count_answers(query, db, tree=tree), pivot, repr(picks), repr(answers.columns())


# ---------------------------------------------------------------------- #
# (a) Sharing never changes an answer
# ---------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(join_instances(kinds=[k for k in RANKING_KINDS if k.startswith("sum")]), st.data())
def test_trees_through_one_cache_equal_throwaway_trees(instance, data):
    query, db, ranking = instance
    query, db = ensure_canonical(query, db)
    names = [relation.name for relation in db]
    cuts = data.draw(
        st.lists(st.tuples(st.sampled_from(names), st.sets(st.integers(0, 9))), max_size=4)
    )
    pairs = [(query, db)] + [(query, restricted(db, *cut)) for cut in cuts]
    cache = TreeCache()
    for query, variant in pairs:
        shared = observed(query, variant, ranking, cache.get(query, variant))
        alone = observed(query, variant, ranking, MaterializedTree(query, variant))
        assert shared == alone


def test_two_rankings_over_one_cached_tree_keep_their_own_messages():
    db = path_db()
    cache = TreeCache()
    for ranking in (
        SumRanking(["x1", "x2", "x3"]),
        SumRanking(["x1", "x2", "x3"], {"x3": lambda value: -10 * value}),
        MinRanking(["x1", "x4"]),
    ):
        shared = observed(PATH, db, ranking, cache.get(PATH, db))
        assert shared == observed(PATH, db, ranking, MaterializedTree(PATH, db))


def test_a_leaf_under_two_parents_sends_each_its_own_group_messages():
    """One ``R2`` leaf state, grouped on ``x2`` under ``R1`` and on ``x3``
    under ``R3``: what it sends is keyed by join variables and ranking."""
    db = path_db()
    under_r1 = JoinQuery([Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3"))])
    under_r3 = JoinQuery([Atom("R3", ("x3", "x4")), Atom("R2", ("x2", "x3"))])
    cache = TreeCache()
    first, second = cache.get(under_r1, db), cache.get(under_r3, db)
    assert first.subtree(1) is second.subtree(1)
    assert first.join_variables(0, 1) != second.join_variables(0, 1)
    for ranking in (
        SumRanking(["x2", "x3"]),
        SumRanking(["x2", "x3"], {"x3": lambda value: -10 * value}),
    ):
        for query, tree in ((under_r1, first), (under_r3, second)):
            assert observed(query, db, ranking, tree) == observed(
                query, db, ranking, MaterializedTree(query, db)
            )
    assert len(first.subtree(1).sent) == 2 * 4  # per edge: sums, members, 2 medians


def test_two_rootings_share_nodes_but_group_them_by_their_own_join_variables():
    """``R2`` is grouped on ``x2`` under ``R1`` and on ``x3`` under ``R3``."""
    db = path_db()
    cache = TreeCache()
    total = count_answers(PATH, db)
    for root in (0, 2):
        rooted = build_join_tree(PATH).rooted(root)
        tree = cache.get(PATH, Database(list(db)), rooted=rooted)
        assert tree.root == root
        assert count_answers(PATH, db, tree=tree) == total
    assert (cache.node_hits, cache.node_misses) == (3, 3)


# ---------------------------------------------------------------------- #
# (b) What a second tree, new only at its root, still has to do
# ---------------------------------------------------------------------- #
def test_second_tree_new_only_at_its_root_touches_only_its_root():
    db = path_db()
    ranking = SumRanking(["x1", "x2", "x3"])
    d1, d2 = (restricted(db, "R1", rows) for rows in ROOTS[:2])
    assert d1["R2"] is d2["R2"] is db["R2"] and d1["R3"] is d2["R3"] is db["R3"]

    cache = TreeCache()
    first = cache.get(PATH, d1)
    select_pivot(PATH, d1, ranking, tree=first)
    plan = FaultPlan()
    with inject_faults(plan), ExecutionContext() as context:
        tree = cache.get(PATH, d2)
        total = count_answers(PATH, d2, tree=tree)
        pivot = select_pivot(PATH, d2, ranking, tree=tree)
    assert tree.root == 0
    assert plan.seen["tree.materialize"] == 1
    assert plan.seen["tree.group"] == plan.seen["tree.group_ids"] == 0
    assert plan.seen["counting.node"] == plan.seen["pivot.node"] == 1
    # The root's edge sends the medians the first tree built: only the root's.
    assert plan.seen["pivot.median"] == 1
    root_rows = len(d2["R1"])
    live_root = sum(1 for count in tree.subtree(0).counts if count)
    # atom scan, materialize, parent ids, counting and pivot node: the root's
    # rows each; the root's median: the live rows it orders.
    assert context.rows_used == 5 * root_rows + live_root
    # No tree can share a root subtree: its message is not kept.
    assert not tree.subtree(0).pivots and ranking in tree.subtree(1).pivots

    alone = MaterializedTree(PATH, d2)
    assert total == count_answers(PATH, d2, tree=alone)
    assert repr(pivot) == repr(select_pivot(PATH, d2, ranking, tree=alone))
    assert (cache.node_hits, cache.node_misses) == (2, 4)
    assert "node_hits=2, node_misses=4" in repr(cache)
    # The terminals read the root's edge and R3's edge off the shared states.
    before = evaluate_sorted(PATH, d1, ranking, tree=first)
    after = evaluate_sorted(PATH, d2, ranking, tree=tree)
    assert after._deferred == [2]
    assert after._members[1] is before._members[1] and after._members[2] is before._members[2]
    assert after._sums[2] is before._sums[2]


def test_terminals_of_a_batch_scan_the_shared_leaf_for_one_weight_per_group_once():
    """R3 is the last occurrence of x3, its join key with R2: every terminal
    defers it on one verdict, kept on the node every tree of the batch shares."""
    db = path_db()
    ranking = SumRanking(["x1", "x2", "x3"])
    variants = [restricted(db, "R1", rows) for rows in ROOTS]
    cache = TreeCache()
    plan = FaultPlan()
    with inject_faults(plan):
        for variant in variants:
            tree = cache.get(PATH, variant)
            answers = evaluate_sorted(PATH, variant, ranking, tree=tree)
            assert answers._deferred == [2] and len(answers) == count_answers(
                PATH, variant, tree=tree
            )
    assert plan.seen["tree.group_weights"] == 1
    assert plan.seen["yannakakis.answer"] == 2 * len(variants)


# ---------------------------------------------------------------------- #
# (c) Lifetime: a state lives exactly as long as a cached tree uses it
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("drop", ["clear", "evict"])
def test_shared_state_dies_with_the_last_cached_tree_using_it(drop):
    db = path_db()
    variants = [restricted(db, "R1", rows) for rows in ROOTS]
    cache = TreeCache(limit=2)
    trees = [cache.get(PATH, variant) for variant in variants]
    assert trees[0].subtree(1) is trees[1].subtree(1) is trees[2].subtree(1)
    subtree, node = weakref.ref(trees[0].subtree(1)), weakref.ref(trees[0]._nodes[1])
    del trees
    gc.collect()
    assert len(cache) == 2 and subtree() is not None  # two cached trees still use it
    if drop == "clear":
        cache.clear()
    else:
        other = Database([Relation(r.name, r.schema, r.rows) for r in db])
        cache.get(PATH, other)
        cache.get(PATH, Database(list(other)))
    gc.collect()
    assert subtree() is None and node() is None


# ---------------------------------------------------------------------- #
# (d) A fault while a later tree is built or read leaves nothing partial
# ---------------------------------------------------------------------- #
# approx-pivot builds, counts and pivots one tree per ε-lossy trim; the cover
# (R2, R3) sits below the root.
INNER = SumRanking(["x3", "x4"])


def approx_inner():
    return PreparedQuery(
        PATH, path_db(), INNER, termination_factor=1, strategy="approx-pivot", epsilon=0.2
    )


def seen_when_the_second_trim_starts():
    """Checkpoint counts when the first step's second trim starts (a trim
    scans each atom once per bound), with the clean result and cache size."""
    seen: Counter[str] = Counter()
    snapshot: Counter[str] = Counter()

    def hook(name):
        seen[name] += 1
        if name == "trim.lossy_scan" and seen[name] == len(PATH) + 1:
            snapshot.update(seen)

    clean = approx_inner()
    previous = set_fault_hook(hook)
    try:
        result = clean.quantile(0.5)
    finally:
        set_fault_hook(previous)
    return snapshot, repr(result), clean.pivot_cache_size


@pytest.mark.faults
@pytest.mark.parametrize("name", ["tree.group", "counting.node", "pivot.median"])
def test_fault_on_a_later_trimmed_tree_leaves_no_partial_state(name):
    snapshot, clean_result, clean_size = seen_when_the_second_trim_starts()
    assert clean_size > 1
    prepared = approx_inner()
    with inject_faults(FaultPlan().arm(name, after=snapshot[name])) as plan:
        with pytest.raises(InjectedFault):
            prepared.quantile(0.5)
    assert plan.fired == [(name, snapshot[name] + 1)]
    result = prepared.quantile(0.5)
    assert repr(result) == clean_result
    assert prepared.pivot_cache_size == clean_size


@pytest.mark.faults
def test_fault_while_the_shared_root_edge_medians_are_built_keeps_no_entry(monkeypatch):
    """The first tree builds the medians its root edge shares with every
    tree new only at its root; a fault mid-build leaves them to the retry,
    built once."""
    ranking = SumRanking(["x1", "x2", "x3"])
    db = path_db()
    first, second = (restricted(db, "R1", rows) for rows in ROOTS[:2])
    built = []

    def recorded(group_ids, *args):
        built.append(group_ids)
        return segmented_weighted_median(group_ids, *args)

    monkeypatch.setattr(pivot_selection, "segmented_weighted_median", recorded)
    cache = TreeCache()
    tree = cache.get(PATH, first)
    # Bottom up: R2's edge to R3 builds its medians first, then the root's.
    with inject_faults(FaultPlan().arm("pivot.median", after=1)) as plan:
        with pytest.raises(InjectedFault):
            select_pivot(PATH, first, ranking, tree=tree)
    assert plan.fired == [("pivot.median", 2)]
    assert built[-1] is tree.child_group_ids(0, 1)  # the fault hit its build
    join_vars = tree.join_variables(0, 1)
    assert (join_vars, ("medians", ranking)) not in tree.subtree(1).sent
    built.clear()
    clean = repr(select_pivot(PATH, first, ranking, tree=MaterializedTree(PATH, first)))
    assert repr(select_pivot(PATH, first, ranking, tree=tree)) == clean
    later = cache.get(PATH, second)
    assert later.subtree(1) is tree.subtree(1)
    select_pivot(PATH, second, ranking, tree=later)
    assert sum(group_ids is tree.child_group_ids(0, 1) for group_ids in built) == 1
    assert (join_vars, ("medians", ranking)) in tree.subtree(1).sent


# ---------------------------------------------------------------------- #
# (e) Concurrent builders converge on one state per key
# ---------------------------------------------------------------------- #
def test_first_state_published_under_a_key_is_the_one_everybody_gets():
    class State:
        pass

    table, first, second = StateTable(), State(), State()
    assert table.get("key") is None
    assert table.publish("key", first) is first
    assert table.publish("key", second) is first and table.get("key") is first
    del first
    gc.collect()
    assert table.get("key") is None  # weak: the table alone keeps nothing alive


@pytest.mark.faults
def test_two_threads_building_over_shared_relations_hold_the_same_states():
    db = path_db()
    ranking = SumRanking(["x1", "x2", "x3"])
    pairs = [(PATH, restricted(db, "R1", rows)) for rows in ROOTS[:2]]
    cache = TreeCache()
    barrier = threading.Barrier(2)
    trees: dict[int, MaterializedTree] = {}

    def meet(name):
        # Both threads are inside a node build (their lookups missed) before
        # either publishes: the second publish must yield to the first.
        if name == "tree.atom_scan":
            try:
                barrier.wait(timeout=2)
            except threading.BrokenBarrierError:
                pass

    def build(position):
        query, trimmed = pairs[position]
        trees[position] = cache.get(query, trimmed)

    interval = sys.getswitchinterval()
    previous = set_fault_hook(meet)
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
        set_fault_hook(previous)
    assert not any(thread.is_alive() for thread in threads) and len(trees) == 2
    assert cache.misses == 2  # counted under the lock: neither miss is lost
    assert cache.node_misses == 6  # both threads missed every node
    for node in (1, 2):
        assert trees[0].subtree(node) is trees[1].subtree(node)
        assert trees[0]._nodes[node] is trees[1]._nodes[node]
    assert trees[0].subtree(0) is not trees[1].subtree(0)
    for position, (query, trimmed) in enumerate(pairs):
        shared = count_answers(query, trimmed, tree=trees[position])
        assert shared == count_answers(query, trimmed)
