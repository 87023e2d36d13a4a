"""Counting the answers of an interval over the cover pair (Lemma D.1).

Exact SUM never rewrites the database into the answers of an interval: per
live R row, the answers whose fold ``w_R + w_S`` lies strictly inside a
handle are one contiguous range of the row's S group.  These cases check
that counting against a nested loop: every comparison against a bound
(``split``), open, one-sided and unbounded handles (``ranges`` and
``pairs``), tenths whose sums round, the introduction's social-network
query, random 3-paths (whose splits cut each side's ranges as bisecting
its bounds would), a SUM that one node covers (key bisection over its row
sums), the weighted median of the per-row range medians on hand-built
ranges, and the ``CoverTerminal`` that selects from the pairs left.
"""

from __future__ import annotations

import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import materialize_quantile
from repro.core.quantile import CoverCounting, CoverTerminal, WeightBisection
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import PreparedQuery
from repro.joins.counting import count_answers
from repro.joins.tree_cache import TreeCache
from repro.query.atom import Atom
from repro.query.classify import find_adjacent_cover
from repro.query.join_query import JoinQuery
from repro.query.rewrite import ensure_canonical
from repro.ranking.sum import SumRanking

from tests.conftest import COMPARISONS, one_sided


def three_path_instance(seed=0, rows=20, domain=6):
    rng = random.Random(seed)
    query = JoinQuery(
        [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")), Atom("R3", ("x3", "x4"))]
    )
    db = Database(
        [
            Relation("R1", ("a", "b"), [(rng.randrange(15), rng.randrange(domain)) for _ in range(rows)]),
            Relation("R2", ("a", "b"), [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)]),
            Relation("R3", ("a", "b"), [(rng.randrange(domain), rng.randrange(15)) for _ in range(rows)]),
        ]
    )
    return query, db


def cover_source(query, db, ranking):
    """The two-node cover source over ``query`` and every answer's weight."""
    query, db = ensure_canonical(query, db)
    cover = find_adjacent_cover(query, frozenset(ranking.weighted_variables))
    assert cover is not None and len(cover[1]) == 2
    answers = query.answers_brute_force(db)
    source = CoverCounting(query, db, ranking, TreeCache(), len(answers), cover)
    return source, sorted(ranking.weight_of(answer) for answer in answers)


def held(source, handle):
    """How many answers ``handle``'s ranges stand for."""
    return sum(
        up * (down[stop] - down[start])
        for (_, up, (_, _, down), _), start, stop in source.ranges(handle)
    )


def split_count(source, comparison, bound):
    """The answers ``w <comparison> bound``, from one ``split`` of the root."""
    lt, gt, _, _ = source.split(source.ranges(source.root), bound)
    return {"<": lt, ">": gt, "<=": source.total - gt, ">=": source.total - lt}[comparison]


@pytest.mark.parametrize("comparison", COMPARISONS)
def test_split_counts_every_comparison_against_a_bound(comparison):
    query, db = three_path_instance(seed=3)
    source, weights = cover_source(query, db, SumRanking(["x1", "x2", "x3"]))  # R1–R2
    assert weights
    for bound in range(int(weights[0]) - 1, int(weights[-1]) + 2):
        interval = one_sided(comparison, bound)
        assert split_count(source, comparison, bound) == sum(map(interval.contains, weights)), bound


@pytest.mark.parametrize("comparison", COMPARISONS)
def test_decimal_folds_count_exactly_the_answers_against_a_bound(comparison):
    """Weights in tenths round both ways (``0.1 + 0.2 > 0.3``): the counts
    bisect on ``own + w_S`` itself, so they agree with the nested loop."""
    query = JoinQuery([Atom("R", ("a", "b")), Atom("S", ("b", "c"))])
    tenths = [i / 10 for i in range(-20, 21)]
    db = Database(
        [
            Relation("R", ("a", "b"), [(a, 0) for a in tenths]),
            Relation("S", ("b", "c"), [(0, c) for c in tenths]),
        ]
    )
    source, weights = cover_source(query, db, SumRanking(["a", "c"]))
    for bound in sorted(set(weights)):
        interval = one_sided(comparison, bound)
        assert split_count(source, comparison, bound) == sum(map(interval.contains, weights)), bound


HANDLES = {
    "unbounded": (None, None),
    "above 8": (8, None),
    "below 20": (None, 20),
    "8 to 20": (8, 20),
    "empty": (14, 14),
}


@pytest.mark.parametrize("handle", list(HANDLES.values()), ids=list(HANDLES))
def test_a_handle_holds_exactly_the_answers_strictly_inside(handle):
    query, db = three_path_instance(seed=5)
    source, weights = cover_source(query, db, SumRanking(["x1", "x2", "x3"]))
    low, high = handle
    inside = [w for w in weights if (low is None or w > low) and (high is None or w < high)]
    pairs = source.pairs(handle)
    assert held(source, handle) == sum(p[1] for p in pairs) == len(inside)
    assert [p[0] for p in pairs for _ in range(p[1])] == inside  # fold order
    if handle == (None, None):
        assert len(inside) == count_answers(query, db) == source.total


def test_a_nested_handle_keeps_the_pairs_of_the_single_interval():
    """Bounding ``(8, None)``'s pairs above by 20 gives ``(8, 20)``'s pairs
    in the same order: a child handle needs no other database."""
    query, db = three_path_instance(seed=6)
    source, _ = cover_source(query, db, SumRanking(["x1", "x2", "x3"]))
    assert source.pairs((8, 20)) == [p for p in source.pairs((8, None)) if p[0] < 20]


def test_decode_weighs_the_answer_its_pair_names():
    query, db = three_path_instance(seed=8)
    ranking = SumRanking(["x1", "x3"])
    source, _ = cover_source(query, db, ranking)
    for fold, _, r, s in source.pairs(source.root):
        weight, answer = source.decode((r, s))
        assert source.query.satisfies(answer, source.db)
        assert weight == fold and repr(weight) == repr(ranking.weight_of(answer))
        assert source.decode((r, s))[1] is answer  # memoized per pair


def test_the_social_network_query_counts_its_cover():
    """The introduction's query: SUM(l2, l3) over Share and Attend."""
    rng = random.Random(10)
    query = JoinQuery(
        [Atom("Admin", ("u1", "e")), Atom("Share", ("u2", "e", "l2")), Atom("Attend", ("u3", "e", "l3"))]
    )
    db = Database(
        [
            Relation("Admin", ("u", "e"), [(rng.randrange(5), rng.randrange(4)) for _ in range(15)]),
            Relation("Share", ("u", "e", "l"), [(rng.randrange(5), rng.randrange(4), rng.randrange(30)) for _ in range(15)]),
            Relation("Attend", ("u", "e", "l"), [(rng.randrange(5), rng.randrange(4), rng.randrange(30)) for _ in range(15)]),
        ]
    )
    ranking = SumRanking(["l2", "l3"])
    source, weights = cover_source(query, db, ranking)
    for bound in sorted(set(weights)):
        assert split_count(source, "<=", bound) == sum(w <= bound for w in weights)
    prepared = PreparedQuery(query, db, ranking, termination_factor=1)
    for phi in (0.1, 0.5, 0.9):
        oracle = materialize_quantile(query, db, ranking, phi=phi)
        result = prepared.quantile(phi)
        assert (result.weight, result.target_index) == (oracle.weight, oracle.target_index)
    assert isinstance(prepared._sources["exact-pivot"], CoverCounting)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    low=st.integers(min_value=-5, max_value=25),
    high=st.integers(min_value=0, max_value=30),
)
def test_interval_counts_property_random(seed, low, high):
    """Random 3-paths: an open handle holds exactly the answers strictly
    inside, and a split of it counts each side and cuts each side's ranges
    as bisecting that side's bounds would."""
    query, db = three_path_instance(seed=seed, rows=10, domain=4)
    source, weights = cover_source(query, db, SumRanking(["x1", "x2", "x3"]))
    inside = [w for w in weights if low < w < high]
    assert held(source, (low, high)) == len(inside)
    middle = (low + high) // 2
    expected = (sum(w < middle for w in inside), sum(w > middle for w in inside))
    lt, gt, below, above = source.split(source.ranges((low, high)), middle)
    assert (lt, gt) == expected
    assert (below, above) == (source.ranges((low, middle)), source.ranges((middle, high)))


@pytest.mark.parametrize("ranking", ["sum(x1, x2)", "sum(x2, x3)", "sum(x3, x4)", "sum(x3)"])
def test_a_one_node_sum_selects_every_rank_by_its_row_sums(ranking):
    """A SUM that one atom covers is key bisection over that atom's row sums."""
    query, db = three_path_instance(seed=2)
    ranking = SumRanking([v.strip() for v in ranking[4:-1].split(",")])
    prepared = PreparedQuery(query, db, ranking, termination_factor=1)
    weights = sorted(ranking.weight_of(a) for a in query.answers_brute_force(db))
    assert prepared.count() == len(weights) > 0
    for index in [*range(0, len(weights), max(1, len(weights) // 25)), len(weights) - 1]:
        result = prepared.selection(index)
        assert (result.weight, result.target_index) == (weights[index], index)
        assert repr(result.weight) == repr(ranking.weight_of(result.assignment))
    source = prepared._sources["exact-pivot"]
    assert isinstance(source, WeightBisection) and source._cover is not None


# --------------------------------------------------------------------------- #
# median and split on hand-built ranges
# --------------------------------------------------------------------------- #
def built_ranges(rows):
    """Ranges from ``(w_R, up, [(S row, w_S, down), ...], start, stop)``
    rows; a row whose members are the same list object shares its group."""
    groups, ranges = {}, []
    for r, (own, up, members, start, stop) in enumerate(rows):
        group = groups.get(id(members))
        if group is None:
            ordered = sorted(members, key=lambda m: m[1])
            down = [0]
            for m in ordered:
                down.append(down[-1] + m[2])
            group = groups[id(members)] = ([m[0] for m in ordered], [m[1] for m in ordered], down)
        ranges.append(((own, up, group, r), start, stop))
    return ranges


def expanded(ranges):
    """``(fold, answers, R row, S row)`` for every pair the ranges hold."""
    return [
        (own + weights[k], up * (down[k + 1] - down[k]), r, members[k])
        for (own, up, (members, weights, down), r), start, stop in ranges
        for k in range(start, stop)
    ]


SHARED = [(0, 1, 1), (1, 4, 2), (2, 9, 1), (3, 16, 3)]
MEDIAN_CASES = {
    "one row, one member": [(5, 1, [(0, 2, 1)], 0, 1)],
    "one row, several members": [(0, 1, [(0, 3, 1), (1, 1, 1), (2, 2, 1)], 0, 3)],
    "a range inside its group": [(1, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 5)], 1, 3)],
    "rows sharing one group": [(0, 1, SHARED, 0, 4), (10, 3, SHARED, 1, 3), (-5, 2, SHARED, 2, 4)],
    "equal folds across rows": [(1, 1, [(0, 1, 2)], 0, 1), (0, 5, [(0, 2, 1)], 0, 1), (2, 1, [(0, 0, 4)], 0, 1)],
    "counts above 2**63": [(0, 2**40, [(0, 1, 2**30), (1, 3, 2**31)], 0, 2), (1, 2**41, [(0, 0, 2**29)], 0, 1)],
    "decimal folds": [
        (0.1, 1, [(0, 0.2, 1), (1, 0.7, 2)], 0, 2),
        (0.3, 2, [(0, 0.0, 1), (1, 0.4, 1)], 0, 2),
        (0.2, 1, [(0, 0.1, 3)], 0, 1),
    ],
    "exact decimals": [(Decimal("0.1"), 3, [(0, Decimal("0.2"), 1), (1, Decimal("-0.3"), 2)], 0, 2)],
    "an infinite own weight": [(float("-inf"), 1, [(0, 1.0, 2)], 0, 1), (0.0, 3, [(0, 1.0, 1), (1, 2.0, 1)], 0, 2)],
}


@pytest.mark.parametrize("rows", list(MEDIAN_CASES.values()), ids=list(MEDIAN_CASES))
def test_median_is_a_quarter_pivot_and_split_counts_each_side(rows):
    ranges = built_ranges(rows)
    pairs = expanded(ranges)
    total = sum(p[1] for p in pairs)
    fold, pair = CoverCounting.median(ranges)
    assert any((p[0], p[2], p[3]) == (fold, *pair) for p in pairs)
    lt, gt, _, _ = CoverCounting.split(ranges, fold)
    assert 4 * max(lt, gt) <= 3 * total
    for bound in sorted({p[0] for p in pairs}):
        expected = (
            sum(p[1] for p in pairs if p[0] < bound),
            sum(p[1] for p in pairs if p[0] > bound),
        )
        assert CoverCounting.split(ranges, bound)[:2] == expected, bound


# --------------------------------------------------------------------------- #
# CoverTerminal
# --------------------------------------------------------------------------- #
TERMINAL_PAIRS = [(1, 2, "a"), (3, 1, "b"), (3, 4, "c"), (7, 1, "d")]


def recording_decode(calls):
    def decode(key):
        calls.append(key)
        (name,) = key
        return ord(name), {"x": name, "y": name.upper()}

    return decode


def test_a_terminal_select_decodes_the_pair_owning_the_position():
    calls = []
    terminal = CoverTerminal(recording_decode(calls), TERMINAL_PAIRS, {"x", "y"})
    owners = [name for _, answers, name in TERMINAL_PAIRS for _ in range(answers)]
    assert len(terminal) == len(owners) == 8
    for position, name in enumerate(owners):
        assert terminal.select(position) == (ord(name), {"x": name, "y": name.upper()})
    assert calls == [(name,) for name in owners]  # one decode per position


def test_a_warm_select_decodes_nothing_and_returns_a_copy():
    calls = []
    terminal = CoverTerminal(recording_decode(calls), TERMINAL_PAIRS, {"x", "y"})
    _, answer = terminal.select(4)
    answer["x"] = "changed"
    assert terminal.select(4) == (ord("c"), {"x": "c", "y": "C"})
    assert calls == [("c",)]


def test_a_select_projects_onto_the_kept_variables():
    terminal = CoverTerminal(recording_decode([]), TERMINAL_PAIRS, {"y"})
    assert terminal.select(7) == (ord("d"), {"y": "D"})


def test_an_empty_terminal_holds_nothing():
    terminal = CoverTerminal(recording_decode([]), [], {"x"})
    assert len(terminal) == 0 and terminal.keys == [] and terminal.estimated_bytes() == 0


def test_terminal_bytes_grow_with_each_new_pick():
    terminal = CoverTerminal(recording_decode([]), TERMINAL_PAIRS, {"x"})
    assert terminal.estimated_bytes() == 24 * len(TERMINAL_PAIRS)
    for position in (0, 1, 0, 5):
        terminal.select(position)
    assert terminal.estimated_bytes() == 24 * len(TERMINAL_PAIRS) + 64 * 3
