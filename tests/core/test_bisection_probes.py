"""The probes of exact MIN/MAX/LEX weight bisection, one at a time.

:class:`repro.core.quantile.WeightBisection` answers what the §4/§5 trims
(Lemma 5.2, Example 5.1, Lemma 5.4) answered with a trimmed database: how
many answers lie on one side of a weight.  Here every such count, each
pivot step and every decoded tie is checked against brute force on small
path joins:

* ``W`` is the sorted set of the rows' keys and holds every answer's weight;
* each predicate shape (<, <=, >, >=) around every key is one count;
* LEX counts inside a block (leading components fixed) and a step splits
  in two on one count, with no tie block, until one key of the last
  position is left: that step is its tie block;
* a terminal's selections are the oracle's weights in order, so the rank is
  rebased into each block it descends into;
* a count cut at the frontier (bisected sorted groups, a pass above them)
  equals, group by group, the masked pass over the whole tree
  (:func:`masked_counts`, the reference kept here), for every probe;
* every tie decoded from two counts' frontier sums is an answer keyed as
  its path, the one a row-by-row pick over the masked counts makes, over
  the reduced base and over one with dangling rows.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.quantile import WeightBisection
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.exceptions import RankingError
from repro.joins.counting import subtree_counts
from repro.joins.tree_cache import TreeCache
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.testing import FaultPlan, inject_faults
from tests.conftest import COMPARISONS, join_instances, one_sided


def make_instance(seed=0, rows=25, domain=20):
    rng = random.Random(seed)
    query = JoinQuery(
        [Atom("R", ("x1", "x2")), Atom("S", ("x2", "x3")), Atom("T", ("x3", "x4"))]
    )
    db = Database(
        [
            Relation("R", ("a", "b"), [(rng.randrange(domain), rng.randrange(4)) for _ in range(rows)]),
            Relation("S", ("a", "b"), [(rng.randrange(4), rng.randrange(4)) for _ in range(rows)]),
            Relation("T", ("a", "b"), [(rng.randrange(4), rng.randrange(domain)) for _ in range(rows)]),
        ]
    )
    return query, db


def source_of(query, db, ranking):
    return PreparedQuery(query, db, ranking)._ensure_source("exact-pivot")


def weights(query, db, ranking):
    return sorted(ranking.weight_of(a) for a in query.answers_brute_force(db))


def masked_counts(source, path, strict):
    """The reference count: :func:`subtree_counts` over the whole base tree
    under :func:`masks_of`, rows compared one by one rather than bisected
    over sorted groups."""
    return subtree_counts(source._weights()[0], masks_of(source, path, strict))


def masks_of(source, path, strict):
    """Per node holding a position <= j, the 0/1 mask of its rows keyed as
    ``path`` allows: equal on the fixed positions, below (strict) / at most
    ``W_j[path[-1]]`` on position j (MIN: above / at least)."""
    _, columns, keys, held = source._weights()
    j = len(path) - 1
    masks = {}
    for node, positions in held.items():
        for k in positions:  # ascending
            if k > j:
                break
            t = keys[k][path[k]]
            if k < j:
                kept = [w == t for w in columns[k][node]]
            elif source._above:
                kept = [w > t if strict else w >= t for w in columns[k][node]]
            else:
                kept = [w < t if strict else w <= t for w in columns[k][node]]
            masks[node] = [a and b for a, b in zip(masks[node], kept)] if node in masks else kept
    return masks


def reference_witness(source, path):
    """The tie's answer picked row by row on the masked counts at
    ``W_j[path[-1]]``, kept and strictly kept: top down, while the difference
    is unplaced, the lowest row counted more kept than strictly kept (a row
    the strict mask drops places it), and the first child group counting
    more kept takes it on; otherwise the lowest row counted kept."""
    tree = source._weights()[0]
    narrow = masks_of(source, path, True)
    kept, strict = masked_counts(source, path, False), subtree_counts(tree, narrow)
    chosen = {}
    pending = [(tree.root, range(len(tree.rows(tree.root))), True)]
    while pending:
        node, members, differ = pending.pop()
        row = next(m for m in members if kept[node][m] > (strict[node][m] if differ else 0))
        chosen[node] = tree.rows(node)[row]
        differ = differ and (node not in narrow or bool(narrow[node][row]))
        for child in tree.children(node):
            group = tree.child_groups(node, child)[tree.parent_group_key(node, chosen[node], child)]
            down = differ and any(kept[child][m] > strict[child][m] for m in group)
            differ = differ and not down
            pending.append((child, group, down))
    return tree.assignment_of(chosen)


def count(source, path, strict):
    """The frontier count of ``path``'s block (the root's one group sum)."""
    return source._sums(path, strict)[source._weights()[0].root][0]


MINMAX = {"min": MinRanking, "max": MaxRanking}
LEX_VARIABLES = {1: ["x4"], 2: ["x1", "x4"], 3: ["x3", "x1", "x4"]}


@pytest.mark.parametrize("ranking_cls", MINMAX.values(), ids=MINMAX)
@pytest.mark.parametrize("seed", [0, 3, 4])
def test_below_counts_the_lighter_answers(ranking_cls, seed):
    query, db = make_instance(seed)
    ranking = ranking_cls(["x1", "x3", "x4"])
    source = source_of(query, db, ranking)
    keys = source._weights()[2][0]
    oracle = weights(query, db, ranking)
    for i in range(len(keys) + 1):
        bound = keys[i] if i < len(keys) else math.inf
        assert source.below((i,)) == sum(w < bound for w in oracle)


@pytest.mark.parametrize("ranking_cls", MINMAX.values(), ids=MINMAX)
def test_the_keys_are_the_sorted_row_keys_and_hold_every_weight(ranking_cls):
    query, db = make_instance(5)
    ranking = ranking_cls(["x1", "x2", "x4"])
    keys = source_of(query, db, ranking)._weights()[2]
    assert len(keys) == 1 and keys[0] == sorted(set(keys[0]))
    assert set(weights(query, db, ranking)) <= set(keys[0])


@pytest.mark.parametrize("shape", COMPARISONS)
@pytest.mark.parametrize("ranking_cls", MINMAX.values(), ids=MINMAX)
def test_every_predicate_shape_is_one_masked_count(shape, ranking_cls):
    """What the MIN/MAX trim kept for ``w <op> t`` is one probe: MAX keeps
    the rows keyed below (strict) / at most ``t``, MIN those above / at
    least, and the other side is the complement."""
    query, db = make_instance(seed=3)
    ranking = ranking_cls(["x1", "x3", "x4"])
    source = source_of(query, db, ranking)
    oracle = weights(query, db, ranking)
    upper, strict = shape.startswith("<"), not shape.endswith("=")
    keeps_upper = ranking_cls is MaxRanking
    tree = source._weights()[0]
    for i, threshold in enumerate(source._weights()[2][0]):
        probe = strict if upper == keeps_upper else not strict
        kept = count(source, (i,), probe)
        assert kept == sum(masked_counts(source, (i,), probe)[tree.root])
        answers = kept if upper == keeps_upper else source.total - kept
        assert answers == sum(map(one_sided(shape, threshold).contains, oracle))


def test_example_51_max_around_ten():
    """Example 5.1's ranking, max{x1, x2, x3}, split around the key 10."""
    query = JoinQuery([Atom("A", ("x1", "x2")), Atom("B", ("x2", "x3"))])
    rng = random.Random(1)
    db = Database(
        [
            Relation("A", ("a", "b"), [(rng.randrange(20), rng.randrange(20)) for _ in range(30)]),
            Relation("B", ("a", "b"), [(rng.randrange(20), rng.randrange(20)) for _ in range(30)]),
        ]
    )
    ranking = MaxRanking(["x1", "x2", "x3"])
    source = source_of(query, db, ranking)
    oracle = weights(query, db, ranking)
    i = source._weights()[2][0].index(10)
    assert source.below((i,)) == sum(w < 10 for w in oracle)
    assert source.below((i + 1,)) == sum(w <= 10 for w in oracle)
    assert source.total - source.below((i + 1,)) == sum(w > 10 for w in oracle)


def block_oracle(oracle, prefix, j, bound):
    return sum(w[:j] == prefix and w[j] < bound for w in oracle)


@pytest.mark.parametrize("arity", LEX_VARIABLES)
@pytest.mark.parametrize("seed", [2, 7])
def test_lex_below_counts_inside_each_block(arity, seed):
    query, db = make_instance(seed, rows=12, domain=5)
    ranking = LexRanking(LEX_VARIABLES[arity])
    source = source_of(query, db, ranking)
    keys = source._weights()[2]
    oracle = weights(query, db, ranking)
    prefixes = [()]
    for j in range(arity):
        for path in prefixes:
            prefix = tuple(keys[k][i] for k, i in enumerate(path))
            for i in range(len(keys[j]) + 1):
                bound = keys[j][i] if i < len(keys[j]) else math.inf
                assert source.below((*path, i)) == block_oracle(oracle, prefix, j, bound)
        prefixes = [(*path, i) for path in prefixes for i in range(len(keys[j]))]


def test_a_one_key_range_is_the_next_positions_block():
    query, db = make_instance(2, rows=12, domain=5)
    source = source_of(query, db, LexRanking(["x1", "x3", "x4"]))
    keys = source._weights()[2]
    assert source._range(((), 1, 2)) == ((1,), 0, len(keys[1]))
    # A one-key range of the second position goes down again; of the last it stays.
    assert source._range(((1,), 0, 1)) == ((1, 0), 0, len(keys[2]))
    assert source._range(((1, 0), 2, 3)) == ((1, 0), 2, 3)


def test_a_step_before_the_last_position_has_no_tie_block():
    query, db = make_instance(2, rows=12, domain=5)
    ranking = LexRanking(["x1", "x4"])
    source = source_of(query, db, ranking)
    keys = source._weights()[2]
    step = source.step(None, source.root)
    mid = len(keys[0]) // 2
    assert step.pivot_assignment == {}
    assert step.pivot_weight == (keys[0][mid],)
    oracle = weights(query, db, ranking)
    assert step.count_lt == sum(w[0] < keys[0][mid] for w in oracle)
    assert step.count_lt + step.count_gt == source.total
    assert step.lt == ((), 0, mid) and step.gt == ((), mid, len(keys[0]))


RANKINGS = {
    "min": lambda: MinRanking(["x1", "x3", "x4"]),
    "max": lambda: MaxRanking(["x1", "x4"]),
    "lex1": lambda: LexRanking(["x4"]),
    "lex2": lambda: LexRanking(["x1", "x4"]),
    "lex3": lambda: LexRanking(["x3", "x1", "x4"]),
}


def last_position_handle(source):
    """The root handle, descended to the last position through one-key ranges."""
    keys = source._weights()[2]
    prefix = ()
    while len(prefix) < len(keys) - 1:
        prefix = (*prefix, len(keys[len(prefix)]) // 2)
    return (prefix, 0, None)


def last_position_block(name):
    """(source, ranking, handle, its prefix, the oracle weights of its block,
    the component the last position compares) on one fixed instance."""
    query, db = make_instance(4, rows=14, domain=6)
    ranking = RANKINGS[name]()
    source = source_of(query, db, ranking)
    handle = last_position_handle(source)
    prefix = handle[0]
    keys = source._weights()[2]
    fixed = tuple(keys[k][i] for k, i in enumerate(prefix))
    block = [w for w in weights(query, db, ranking) if not prefix or w[: len(prefix)] == fixed]
    component = (lambda w: w[-1]) if isinstance(ranking, LexRanking) else (lambda w: w)
    return query, db, source, ranking, handle, block, component


@pytest.mark.parametrize("name", RANKINGS)
def test_a_last_position_step_splits_in_two_on_one_count(name):
    """Over more than one key a step splits ``[lo, mid)`` / ``[mid, hi)``:
    one count at the middle key, nothing equal and no tie decoded."""
    _, _, source, _, handle, block, component = last_position_block(name)
    prefix, keys = handle[0], source._weights()[2][-1]
    mid = len(keys) // 2
    with inject_faults(FaultPlan()) as plan:
        step = source.step(None, handle)
    assert (*prefix, mid) in source._below
    assert plan.seen["bisection.witness"] == 0
    assert step.pivot_assignment == {}
    assert step.count_lt == sum(component(w) < keys[mid] for w in block)
    assert step.count_gt == sum(component(w) >= keys[mid] for w in block)
    assert step.count_lt + step.count_gt == len(block)
    assert step.lt == (prefix, 0, mid) and step.gt == (prefix, mid, len(keys))


@pytest.mark.parametrize("name", RANKINGS)
def test_a_one_key_step_is_its_tie_block(name):
    """A one-key range of the last position is one tie block: the step
    counts nothing below or above and decodes its answer as the pivot."""
    query, db, source, ranking, handle, block, component = last_position_block(name)
    prefix, keys = handle[0], source._weights()[2][-1]
    decoded = 0
    for i, key in enumerate(keys):
        equal = sum(component(w) == key for w in block)
        assert source.below((*prefix, i + 1)) - source.below((*prefix, i)) == equal
        if equal:
            step = source.step(None, (prefix, i, i + 1))
            assert (step.count_lt, step.count_gt) == (0, 0)
            assert query.satisfies(step.pivot_assignment, db)
            assert repr(ranking.weight_of(step.pivot_assignment)) == repr(step.pivot_weight)
            assert component(step.pivot_weight) == key
            decoded += 1
    assert decoded and len(source._ties) == decoded


@pytest.mark.parametrize("name", RANKINGS)
def test_terminal_selections_rebase_the_rank_into_each_block(name):
    query, db = make_instance(4, rows=14, domain=6)
    ranking = RANKINGS[name]()
    source = source_of(query, db, ranking)
    terminal = source.terminal(None, source.root, sorted(query.variables))
    oracle = weights(query, db, ranking)
    assert len(terminal) == len(oracle) == source.total
    for position, expected in enumerate(oracle):
        weight, assignment = terminal.select(position)
        assert weight == expected
        assert query.satisfies(assignment, db)


@pytest.mark.parametrize("name", RANKINGS)
def test_each_tie_decodes_one_answer_of_its_weight(name):
    query, db = make_instance(4, rows=14, domain=6)
    ranking = RANKINGS[name]()
    source = source_of(query, db, ranking)
    keys = source._weights()[2]
    present = set(weights(query, db, ranking))
    paths = [()]
    for column in keys:
        paths = [(*path, i) for path in paths for i in range(len(column))]
    decoded = 0
    for path in paths:
        weight = source._weight_at(path)
        if weight in present:
            tie_weight, assignment = source.tie(path)
            assert tie_weight == weight
            assert repr(ranking.weight_of(assignment)) == repr(tie_weight)
            assert query.satisfies(assignment, db)
            assert source.tie(path)[1] is assignment  # memoized
            decoded += 1
    assert decoded == len(present)


@pytest.mark.parametrize(
    "ranking", [MinRanking(["zzz"]), MaxRanking(["x1", "zzz"]), LexRanking(["x1", "missing"])]
)
def test_every_ranking_variable_must_occur(ranking):
    query, db = make_instance()
    with pytest.raises(RankingError):
        PreparedQuery(query, db, ranking).quantile(0.5)


def test_an_infinite_key_is_an_ordinary_key():
    """``lex < (inf, 3)`` counts the rows below it: ±inf is a key the data
    holds, not "unbounded" (that is ``WeightInterval``'s None)."""
    query = JoinQuery([Atom("R", ("x1", "x2"))])
    db = Database(
        [Relation("R", ("a", "b"), [(math.inf, 2), (math.inf, 3), (math.inf, 5), (1, 9)])]
    )
    source = source_of(query, db, LexRanking(["x1", "x2"]))
    first, second = source._weights()[2]
    at_inf, at_three = first.index(math.inf), second.index(3)
    assert source.below((at_inf,)) == 1
    assert source.below((at_inf, at_three)) == 1
    assert source.below((at_inf, at_three + 1)) == 2
    assert count(source, (at_inf, at_three), False) == 2
    assert sum(masked_counts(source, (at_inf, at_three), False)[0]) == 2


#: Keys that are equal across types (1 / 1.0 / True), infinite, or exact.
TYPED = [0, 1, 1.0, True, 2, -math.inf, math.inf, Decimal("1.5"), Decimal(-2)]
#: What a SUM adds without a NaN or a float meeting a Decimal.
SUMMABLE = [0, 1, 1.0, True, 2, 0.5, math.inf]


@st.composite
def bisected_joins(draw):
    """A hostile join under MIN, MAX, LEX or a SUM over one atom's variables."""
    kind = draw(st.sampled_from(["min", "max", "lex", "sum"]))
    palette = SUMMABLE if kind == "sum" else TYPED
    values = draw(st.lists(st.sampled_from(palette), min_size=2, max_size=4, unique_by=repr))
    query, db, ranking = draw(join_instances(values=values, kinds=(kind,), min_rows=2))
    if kind == "sum":
        atom = draw(st.sampled_from(list(query)))
        ranking = SumRanking(draw(st.lists(st.sampled_from(atom.variables), min_size=1, unique=True)))
    return query, db, ranking


def path_join(rows, ranking):
    """``R(x1, x2), S(x2, x3), T(x3, x4)``, rooted at R, over ``rows``."""
    query = JoinQuery([Atom("R", ("x1", "x2")), Atom("S", ("x2", "x3")), Atom("T", ("x3", "x4"))])
    return query, Database([Relation(n, ("a", "b"), r) for n, r in zip("RST", rows)]), ranking


#: Dangling rows on every edge and keys equal across types.
HOSTILE_ROWS = (
    [(1, 0), (1.0, 1), (True, 1), (Decimal("1.5"), 0), (math.inf, 7)],
    [(0, 2), (1, 2), (1, -math.inf), (5, 2)],
    [(2, Decimal(-2)), (2, 1.0), (-math.inf, math.inf), (9, 1)],
)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=bisected_joins())
# The root as the only node holding a position.
@example(instance=path_join(HOSTILE_ROWS, MaxRanking(["x1"])))
# A held node above a held leaf (S and R over T from the second position on).
@example(instance=path_join(HOSTILE_ROWS, LexRanking(["x4", "x2"])))
@example(instance=path_join(HOSTILE_ROWS, MinRanking(["x1", "x4"])))
@example(instance=path_join(HOSTILE_ROWS, SumRanking(["x1", "x2"])))
def test_the_frontier_count_is_the_masked_count(instance):
    """Over the engine's reduced base and over the canonical one, whose
    dangling rows every count must skip: each node's group sums, not only
    the root's, since a tie's witness walks them."""
    for source in bases(instance):
        tree = source._weights()[0]
        prefixes = [()]
        for column in source._weights()[2]:
            for prefix in prefixes:
                for i in range(len(column)):
                    for strict in (False, True):
                        path = (*prefix, i)
                        sums, masked = source._sums(path, strict), masked_counts(source, path, strict)
                        assert tree.root in sums
                        for node, groups in sums.items():
                            assert groups == masked_group_sums(tree, node, masked[node])
            longer = [(*prefix, i) for prefix in prefixes for i in range(len(column))]
            prefixes = longer[:: max(1, len(longer) // 6)]  # a few blocks per position


def bases(instance):
    """The engine's exact-pivot source and one over the unreduced canonical
    base (none for a SUM whose atoms a pair covers: not bisected)."""
    query, db, ranking = instance
    prepared = PreparedQuery(query, db, ranking)
    reduced = prepared._ensure_source("exact-pivot")
    if not isinstance(reduced, WeightBisection):
        return []
    base = prepared._ensure_canonical()
    return [reduced, WeightBisection(*base, ranking, TreeCache(), reduced.total, reduced._cover)]


def masked_group_sums(tree, node, counts):
    """``counts`` summed per join group of ``node``'s parent edge (the root:
    one group), then 0 for the parent rows with none."""
    parent = tree.rooted.parent[node]
    members = [range(len(counts))] if parent is None else tree.child_groups(parent, node).values()
    return [sum(counts[m] for m in rows) for rows in members] + [0]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=bisected_joins())
@example(instance=path_join(HOSTILE_ROWS, MaxRanking(["x1"])))
@example(instance=path_join(HOSTILE_ROWS, LexRanking(["x4", "x2"])))
@example(instance=path_join(HOSTILE_ROWS, MinRanking(["x1", "x4"])))
@example(instance=path_join(HOSTILE_ROWS, SumRanking(["x1", "x2"])))
def test_every_tie_is_an_answer_keyed_as_its_path(instance):
    """For every full path whose block holds an answer, the tie decoded from
    the two counts around its key is an answer of the source's base whose
    keys are the path's: its weight is ``_weight_at(path)``.  It is the
    answer the row-by-row reference picks, so the representative of a tie
    block does not move."""
    for source in bases(instance):
        query, db = source.query, source.db
        paths = [()]
        for column in source._weights()[2]:
            paths = [(*path, i) for path in paths for i in range(len(column))]
        decoded = 0
        for path in paths:
            if source.below((*path[:-1], path[-1] + 1)) == source.below(path):
                continue  # an empty block
            weight, assignment = source.tie(path)
            assert query.satisfies(assignment, db)
            assert source.ranking.weight_of(assignment) == source._weight_at(path)
            assert repr(source.ranking.weight_of(assignment)) == repr(weight)
            assert repr(assignment) == repr(reference_witness(source, path))
            decoded += 1
        assert decoded == len(source._ties) and (decoded > 0) == (source.total > 0)
