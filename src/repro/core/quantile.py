"""The pivoting quantile algorithm (Algorithm 1, Sections 3 and 3.1).

Given an acyclic join query, a database, a ranking function and a requested
position, the algorithm repeatedly

1. selects a c-pivot among the current candidate answers (Section 4),
2. splits the candidates into the answers lighter and heavier than the
   pivot, within the current candidate interval, and
3. counts both parts to decide where the requested index falls,

until the index falls into the equal-to part (the pivot is returned) or the
candidate set is small enough to sort and finish with plain selection.

The loop (:func:`run_pivoting`) sees the candidates only through a
:class:`CandidateSource`, one per strategy:

* :class:`CoverCounting` — exact SUM over a cover pair (Theorem 5.6 /
  Lemma D.1): one counting pass over one of the pair per step, no trims;
* :class:`WeightBisection` — MIN, MAX, LEX and one-node SUM: bisection over
  the base rows' sorted keys with one count per step, no trims;
* :class:`LocalCandidates` — ``approx-pivot`` only: the ε-lossy trimmer's
  ``trim_interval`` rewrites the *original* database to each interval
  (Definition 3.5), then the rewritten join is counted, pivoted and sorted;
* ``baselines.materialize.MaterializedAnswers`` — every answer sorted once,
  zero pivot steps.

With an exact source the returned answer is an exact φ-quantile; with the
ε-lossy trimmer it is a (φ ± ε)-quantile (Lemma 3.6).  Sharded execution
runs the same loop over :class:`~repro.parallel.merger.RankMerger`, which
merges the shard workers' :class:`CoverCounting` counts and pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Collection, Iterable, Iterator, MutableMapping, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, gt, itemgetter, mul, not_
from typing import Any, Protocol

from repro.data.database import Database
from repro.exceptions import EmptyResultError, SolverError, ValidationError
from repro.joins.counting import (
    count_answers, count_from_tree, group_sums, subtree_counts,
)
from repro.joins.message_passing import MaterializedTree
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import SortedAnswers, evaluate_sorted
from repro.core.result import IterationStats, QuantileResult
from repro.pivot.pivot_selection import select_pivot
from repro.kernels import active_backend
from repro.query.join_query import JoinQuery
from repro.query.join_tree import JoinTree
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.base import RankingFunction, nan_answer_error
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MinRanking
from repro.ranking.sum import SumRanking
from repro.ranking.tuple_weights import owned_variables, row_weight, variable_to_atom_assignment
from repro.runtime import checkpoint
from repro.trim.base import Trimmer

Assignment = dict[str, Any]


class CappedCache(dict):
    """A dict that silently stops accepting new keys past a size limit.

    Bounds the memory held by the interval-keyed pivot and answer caches
    (serial and sharded); existing entries keep being served, and
    overwriting an existing key is always allowed.  A limit of 0 (or less)
    stores nothing: the cache is off.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def __setitem__(self, key: Any, value: Any) -> None:
        if len(self) >= self.limit and key not in self:
            return
        super().__setitem__(key, value)


def check_phi(phi: float) -> None:
    """Raise :class:`ValidationError` unless ``phi`` is a number in ``[0, 1]``
    (a bool is never a number)."""
    if isinstance(phi, bool) or not isinstance(phi, (int, float)) or not 0.0 <= phi <= 1.0:
        raise ValidationError(f"phi must be a number in [0, 1], got {phi!r}")


def target_index_for(phi: float, total: int) -> int:
    """The 0-based index of the φ-quantile in a sorted list of ``total`` answers.

    Follows Algorithm 1 (line 4): ``⌊φ·|Q(D)|⌋``, clamped to ``[0, total−1]``.
    """
    check_phi(phi)
    if total <= 0:
        raise EmptyResultError("the query has no answers, so no quantile exists")
    return min(total - 1, max(0, int(math.floor(phi * total))))


def phi_for_index(index: int, total: int) -> float:
    """The φ value whose quantile is the answer at 0-based ``index``.

    Exact inverse of :func:`target_index_for`: for every valid index,
    ``target_index_for(phi_for_index(i, total), total) == i``.  The midpoint
    ``(i + ½)/total`` keeps ``φ·total`` half a unit away from the integer
    boundaries, so the ``⌊φ·total⌋`` rounding of the forward direction cannot
    drift to a neighbouring rank through floating-point error (``i/total``
    does: e.g. ``⌊(15/22)·22⌋ == 14``).
    """
    return (resolve_target(None, index, total) + 0.5) / total


def resolve_target(phi: float | None, index: int | None, total: int) -> int:
    """The 0-based target rank for a quantile (``phi``) or selection (``index``).

    The one place every strategy and entry point validates a request:
    exactly one of ``phi`` and ``index``, a non-empty join, a number in
    ``[0, 1]`` or an in-range ``int`` — so each failure raises the same typed
    error everywhere.
    """
    if (phi is None) == (index is None):
        raise ValidationError("exactly one of phi and index must be provided")
    if total <= 0:
        raise EmptyResultError("the query has no answers, so no quantile exists")
    if index is None:
        return target_index_for(phi, total)  # type: ignore[arg-type]
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < total:
        raise ValidationError(f"index must be an integer in [0, {total}), got {index!r}")
    return index


@dataclass
class PivotStep:
    """Memoized outcome of one pivoting iteration for a candidate interval.

    The pivoting loop is deterministic given the (canonical) base query,
    database, ranking, and trimmer: the same candidate interval always yields
    the same pivot, the same trimmed sub-databases, and the same partition
    counts.  A :class:`PreparedQuery` therefore shares a ``{interval:
    PivotStep}`` cache across φ values — repeated quantile queries reuse the
    expensive early iterations (which scan the full database) and only pay
    for the suffix of the search path where their target ranks diverge.

    ``lt`` and ``gt`` are the candidate handles of the two partitions; they
    mean something only to the :class:`CandidateSource` that produced them,
    so steps of different sources must never share a cache.
    """

    pivot_assignment: Assignment
    pivot_weight: Any
    pivot_c: float
    lt: Any
    count_lt: int
    gt: Any
    count_gt: int


class Terminal(Protocol):
    """The remaining candidates of one interval, sorted by weight (``len()``
    of them); what the answer cache holds and ``estimated_bytes`` charges."""

    def __len__(self) -> int: ...
    def estimated_bytes(self) -> int: ...
    def select(self, position: int) -> tuple[Any, Assignment]:
        """The (weight, assignment) at ``position``; the dict is the caller's."""


class CandidateSource(Protocol):
    """What Algorithm 1 needs to know about the candidate answers.

    A *handle* names the candidate set of one weight interval; the loop only
    carries handles from a :class:`PivotStep` back into the next call.
    ``strategy`` is the result's; only ``"approx-pivot"`` is inexact.
    """

    strategy: str

    @property
    def total(self) -> int:
        """``|Q(D)|``."""

    @property
    def root(self) -> Any:
        """The handle of the unrestricted candidate set."""

    def step(self, interval: WeightInterval, handle: Any) -> PivotStep:
        """Pick a c-pivot among ``handle``'s candidates, trim and count the
        partitions strictly below and above it (within ``interval``)."""

    def terminal(
        self, interval: WeightInterval, handle: Any, keep: Collection[str]
    ) -> Terminal:
        """``handle``'s candidates in weight order, assignments over ``keep``."""


class PreparedSource(CandidateSource, Protocol):
    """A prepared query's source of one strategy: the loop stops at
    ``termination_factor × size`` candidates (materialize: ``size == total``)."""

    query: JoinQuery
    db: Database
    size: int

    def estimated_bytes(self) -> int: ...


def refuse_nan_sums(tree: MaterializedTree, ranking: RankingFunction) -> None:
    """Raise :class:`RankingError` if some answer of ``tree`` weighs NaN.

    No variable weighs NaN, but a SUM whose answer adds a +inf weight to a
    -inf one does, and NaN has no order.  The answers holding both are
    counted with masks over each variable's weight column at its last
    occurrence top-down (the one ``weight_of`` reads, and the column pivot
    selection and the terminal sort compute anyway); a column whose sum is
    finite holds no infinity and is not scanned.
    """
    if not isinstance(ranking, SumRanking):
        return
    source: dict[str, tuple[int, int]] = {}
    for node in tree.nodes_top_down():
        source.update((v, (node, p)) for p, v in enumerate(tree.variables(node)))
    # Per sign, per node: 1 for the rows keeping no variable of that weight.
    clean: dict[float, dict[int, list[int]]] = {math.inf: {}, -math.inf: {}}
    for node, p in (source[v] for v in ranking.weighted_variables if v in source):
        column = tree.weight_column(node, p, ranking)
        if not math.isfinite(sum(column)):
            for sign, masks in clean.items():
                _meet(masks, node, [int(w != sign) for w in column])
    plus, minus = clean.values()
    if not plus or not minus:
        return
    neither = dict(plus)
    for node, kept in minus.items():
        _meet(neither, node, kept)
    without = [sum(subtree_counts(tree, masks)[tree.root]) for masks in (plus, minus, neither)]
    if count_from_tree(tree) - without[0] - without[1] + without[2]:
        raise nan_answer_error(ranking)


def _meet(masks: dict[int, list[int]], node: int, kept: list[int]) -> None:
    """Keep in ``masks[node]`` only the rows ``kept`` keeps too."""
    masks[node] = [a & b for a, b in zip(masks[node], kept)] if node in masks else kept


LocalHandle = tuple[JoinQuery, Database]


class LocalCandidates:
    """``approx-pivot``'s candidate source: ε-lossy trimmed (query, database) pairs.

    ``query``/``db`` are the canonical (usually semijoin-reduced) base.  Each
    interval's candidates are the trimmer's ``trim_interval`` of the base,
    counted, pivoted (``select_pivot``) and sorted (``evaluate_sorted``)
    over their own tree, so this is the only caller of the trims, pivot
    selection and sorted terminal that pivoting over trimmed databases is
    made of.
    """

    strategy = "approx-pivot"

    def __init__(
        self,
        query: JoinQuery,
        db: Database,
        ranking: RankingFunction,
        trimmer: Trimmer,
        tree_cache: TreeCache,
        total: int | None = None,
    ) -> None:
        self.query = query
        self.db = db
        self.ranking = ranking
        self.trimmer = trimmer
        self.tree_cache = tree_cache
        self.root: LocalHandle = (query, db)
        self.size = db.size
        self.total = (
            count_answers(query, db, tree=tree_cache.get(query, db))
            if total is None
            else total
        )

    def candidate(self, interval: WeightInterval) -> tuple[LocalHandle, int]:
        """Trim the base to ``interval`` and count what is left.

        Trims always restart from the (canonical, possibly semijoin-reduced)
        base: re-applying a lossy trimmer to its own output would compound
        its answer loss.
        """
        query, db = self.trimmer.trim_interval(self.query, self.db, interval)
        return (query, db), count_answers(query, db, tree=self.tree_cache.get(query, db))

    def _tree(self, handle: LocalHandle) -> MaterializedTree:
        """``handle``'s tree; the base's answers are every answer, so its tree
        is first searched for one weighing NaN."""
        tree = self.tree_cache.get(*handle)
        if handle[1] is self.db:
            refuse_nan_sums(tree, self.ranking)
        return tree

    def step(self, interval: WeightInterval, handle: LocalHandle) -> PivotStep:
        pivot = select_pivot(*handle, self.ranking, tree=self._tree(handle))
        lt, count_lt = self.candidate(interval.with_high(pivot.weight, strict=True))
        gt, count_gt = self.candidate(interval.with_low(pivot.weight, strict=True))
        return PivotStep(
            pivot.assignment, pivot.weight, pivot.c, lt, count_lt, gt, count_gt
        )

    def terminal(
        self, interval: WeightInterval, handle: LocalHandle, keep: Collection[str]
    ) -> SortedAnswers:
        return evaluate_sorted(*handle, self.ranking, self._tree(handle), keep)

    def estimated_bytes(self) -> int:
        return 0  # trims are charged per pivot step, trees by the tree cache


class CacheMiss(Exception):
    """A :func:`replay` needed a step, terminal or probe nobody memoized."""


_REPLAYING: ContextVar[bool] = ContextVar("repro_replaying", default=False)


@contextmanager
def replay() -> Iterator[None]:
    """Inside, :func:`run_pivoting` computes nothing: a miss raises :class:`CacheMiss`."""
    token = _REPLAYING.set(True)
    try:
        yield
    finally:
        _REPLAYING.reset(token)


def computing(miss: Any) -> None:
    """Called before a memo miss is computed: raises inside :func:`replay`."""
    if _REPLAYING.get():
        raise CacheMiss(miss)


#: W-indices into the sorted keys of the leading weight positions: ``path[:-1]``
#: fixes a block (the answers keyed so on the first positions), ``path[-1]``
#: is an index into the next position's keys.
Path = tuple[int, ...]
#: A :class:`WeightBisection` handle: a block and an index range ``[lo, hi)``
#: of the next position's keys (``hi`` ``None``: to the end).
BisectionHandle = tuple[Path, int, int | None]


#: What a :class:`WeightBisection` builds first: (base tree, per position the
#: row keys of each node holding it, per position ``W``, per node the
#: positions it holds in ascending order).
_Weights = tuple[MaterializedTree, list[dict[int, list[Any]]], list[list[Any]], dict[int, list[int]]]
#: A join group sorted by key: its live rows, their keys, prefix sums of their counts.
_Group = tuple[list[int], list[Any], list[int]]
#: A node's sorted groups and per child, per group, the child group each of its rows selects.
_Sorted = tuple[list[_Group], dict[int, list[list[int]]]]
#: Per node at or above a count's frontier, per join group, the answers below it the count keeps.
_Sums = dict[int, list[int]]


def sorted_groups(members: Iterable[Iterable[int]], keys: Sequence[Any], counts: Sequence[int]) -> list[_Group]:
    """Per join group (its ``members``) the rows ``counts`` counts, sorted by
    ``keys``, their keys and prefix sums of their ``counts``; then the empty
    group of a parent row with no join group."""
    groups: list[_Group] = []
    for rows in members:
        live = sorted((m for m in rows if counts[m]), key=keys.__getitem__)
        groups.append((live, [keys[m] for m in live], list(accumulate((counts[m] for m in live), initial=0))))
    groups.append(([], [], [0]))
    return groups


class WeightBisection:
    """The exact MIN/MAX/LEX candidate source: bisection over the input keys
    (and exact SUM on one cover node: MAX's one position, the node's row sums).

    An answer's weight is read off its rows one *position* at a time: MIN
    (MAX) is one position, what one row weighs (min or max over the row's
    weighted columns); LEX has one per variable, the key its rows give it.
    So the sorted set ``W_j`` of the base rows' keys holds every answer's
    j-th component, and the answers of a block (first ``j`` components
    fixed) lighter than ``W_j[i]`` are one count of the base tree keeping
    only the rows whose keys allow it (Example 2.1; Theorem 5.3's and
    §5.2's O(|D| log |D|)).  The count is cut at the *frontier*, the nodes
    holding a position <= j with no such node below: each node's live rows
    are sorted by its keys (the tuple of the positions it holds) per join
    group of its parent edge, with prefix sums of their subtree counts
    (:func:`sorted_groups`), so the rows a probe keeps are one bisected range
    per group, a frontier group's answers one prefix difference, and only a
    node above the frontier multiplies its kept rows' child group sums.
    The k-th answer is found by bisecting ``W_j`` to the block holding rank
    k, rebasing k into that block and going on with position j + 1.  A
    handle is a block and an index range of the next position's keys: a
    step halves it on one count, nothing equal, and only a one-key range of
    the last position is a tie block, its pivot one decoded answer: so a tie
    is decoded only for an answer returned.  Each count keeps its frontier
    sums, and a tie at ``W_j[i]`` is walked top down from those of the
    counts at ``i`` and ``i + 1`` (kept and strictly kept: ``W_j`` holds
    every row key).  A terminal bisects the rest.  ``W`` is built on first
    use, a node's sorted groups on its first count; each memo entry (answers
    below a key with its frontier sums, one answer per tie block of a full
    weight) is stored whole, by one assignment.
    """

    strategy = "exact-pivot"

    def __init__(
        self, query: JoinQuery, db: Database, ranking: RankingFunction, tree_cache: TreeCache,
        total: int, cover: int | None = None,
    ) -> None:
        self.query, self.db, self.ranking = query, db, ranking
        self.tree_cache, self.total, self.size = tree_cache, total, db.size
        self.root: BisectionHandle = ((), 0, None)
        self._cover = cover  # SUM: the one node holding every weighted variable
        self._lex = isinstance(ranking, LexRanking)
        variables = ranking.weighted_variables
        self._positions: list[tuple[str, ...]] = [(v,) for v in variables] if self._lex else [variables]
        self._key = ranking.key_of if isinstance(ranking, LexRanking) else ranking.variable_weight
        # MIN keeps the rows at or above a key, MAX and LEX those below it.
        self._above = isinstance(ranking, MinRanking)
        # A step halves one position's key range and |W_j| <= |Q(D)|, so a run
        # takes at most r·log2|Q(D)| + r + 1 steps: inside Algorithm 1's cap
        # for this c, r·log2|Q(D)| + 20 (MIN/MAX, r = 1: c = 1/2).
        self._c = 1 - 0.5 ** (1 / len(self._positions))
        self._base: _Weights | None = None
        self._groups: dict[int, _Sorted] = {}
        self._below: dict[Path, tuple[int, _Sums]] = {}
        self._ties: dict[Path, tuple[Any, Assignment]] = {}

    def _weights(self) -> _Weights:
        """(base tree, per position the row keys of each node holding it, per
        position ``W``, per node the positions it holds)."""
        if self._base is None:
            tree = self.tree_cache.get(self.query, self.db)
            refuse_nan_sums(tree, self.ranking)
            fold: Callable[[Iterable[Any]], Any] = min if self._above else max
            columns: list[dict[int, list[Any]]] = []
            for variables in self._positions if self._cover is None else ():
                keyed: dict[int, list[Any]] = {}
                for node in tree.nodes_top_down():
                    found = [
                        [self._key(v, value) for value in tree.node_column(node, p)]
                        for p, v in enumerate(tree.variables(node))
                        if v in variables
                    ]
                    if found:
                        checkpoint("bisection.weights", rows=len(tree.rows(node)))
                        keyed[node] = found[0] if len(found) == 1 else [fold(w) for w in zip(*found)]
                columns.append(keyed)
            if self._cover is not None:
                owned = sorted(self.ranking.weighted_variables)
                columns.append({self._cover: row_sums(tree, self._cover, self.ranking, owned)})
            keys = [sorted({w for c in keyed.values() for w in c}) for keyed in columns]
            held: dict[int, list[int]] = {}
            for k, keyed in enumerate(columns):
                for node in keyed:
                    held.setdefault(node, []).append(k)
            self._base = (tree, columns, keys, held)
        return self._base

    def _sorted(self, node: int) -> _Sorted:
        """``node``'s :func:`sorted_groups` per join group of its parent edge
        (the root: one group), keyed by the tuple of the positions it holds,
        and per child the group ids its rows select there, in that order."""
        found = self._groups.get(node)
        if found is None:
            tree, columns, _, held = self._weights()
            rows = len(tree.rows(node))
            checkpoint("bisection.groups", rows=rows)
            keyed = [columns[k][node] for k in held.get(node, ())]
            parent = tree.rooted.parent[node]
            members: Iterable[Iterable[int]] = [range(rows)] if parent is None else tree.child_groups(parent, node).values()
            keys: list[tuple[Any, ...]] = list(zip(*keyed)) if keyed else [()] * rows
            groups = sorted_groups(members, keys, subtree_counts(tree)[node])
            ids = {c: tree.parent_group_ids(node, c) for c in tree.children(node)}
            aligned = {c: [[ids[c][m] for m in live] for live, _, _ in groups] for c in ids}
            found = self._groups[node] = (groups, aligned)
        return found

    def _sums(self, path: Path, strict: bool) -> _Sums:
        """Per node at or above the frontier, per join group of its parent
        edge, the answers of ``path``'s block below it keeping the rows keyed
        below (strict) / at most ``W_j[path[-1]]`` — MIN: above / at least —
        (the root's one group: the count): per group of a frontier node one
        prefix difference over the range of rows its keys keep; above it, per
        row kept, the product of its children's group sums."""
        tree, _, _, held = self._weights()
        j, counts = len(path) - 1, subtree_counts(tree)
        sums: _Sums = {}
        for node in tree.nodes_bottom_up():
            below = any(c in sums for c in tree.children(node))
            if not below and not any(k <= j for k in held.get(node, ())):
                continue  # neither holds a position <= j nor is above a node that does
            groups, aligned = self._sorted(node)
            start, stop = self._cut(node, path, strict)
            checkpoint("bisection.count", rows=len(tree.rows(node)) if below else len(groups))
            if not below:
                sums[node] = [down[stop(keys)] - down[start(keys)] for _, keys, down in groups]
                continue
            gathers = [
                ((sums[c] if c in sums else group_sums(tree, node, c, counts[c])).__getitem__, aligned[c])
                for c in tree.children(node)
            ]
            sums[node] = []
            for g, (_, keys, _) in enumerate(groups):
                first, last = start(keys), stop(keys)
                factors = [map(child, ids[g][first:last]) for child, ids in gathers]
                sums[node].append(sum(reduce(partial(map, mul), factors)))
        return sums

    def _cut(self, node: int, path: Path, strict: bool) -> tuple[Callable[[list[Any]], int], Callable[[list[Any]], int]]:
        """Where the rows ``path`` keeps (``strict``: strictly) start and stop
        in one of ``node``'s sorted groups: an equality range on the fixed
        positions it holds (none: the whole group), cut at position j's key
        when it holds j (MIN: a suffix)."""
        keys, held = self._weights()[2:]
        j = len(path) - 1
        positions = [k for k in held.get(node, ()) if k <= j]
        t = tuple(keys[k][path[k]] for k in positions)
        narrow = None if len(t) == len(held.get(node, ())) else itemgetter(slice(len(t)))
        left, right = (partial(side, x=t, key=narrow) for side in (bisect_left, bisect_right))
        if not positions or positions[-1] < j:
            return left, right
        if self._above:
            return (right if strict else left), len
        return partial(bisect_left, x=t[:-1]), (left if strict else right)

    def _block(self, prefix: Path) -> int:
        """How many answers ``prefix``'s keys fix."""
        if not prefix:
            return self.total
        return self.below((*prefix[:-1], prefix[-1] + 1)) - self.below(prefix)

    def below(self, path: Path) -> int:
        """How many answers of ``path[:-1]``'s block key below ``W_j[path[-1]]``
        (the index up to ``len(W_j)``)."""
        found = self._below.get(path)
        if found is None:
            i, keys = path[-1], self._weights()[2][len(path) - 1]
            if i in (0, len(keys)):
                return 0 if i == 0 else self._block(path[:-1])
            computing(path)
            sums = self._sums(path, strict=not self._above)
            kept = sums[self._weights()[0].root][0]
            below = self._block(path[:-1]) - kept if self._above else kept
            found = self._below[path] = (below, sums)
        return found[0]

    def _frontier(self, path: Path, strict: bool) -> _Sums:
        """``_sums(path, strict)`` as a count of ``below`` memoized it: ``W_j``
        holds every row key, so at most ``W_j[i]`` is below ``W_j[i + 1]``
        (MIN: above ``W_j[i]`` is at least ``W_j[i + 1]``).  Only at the ends
        of ``W_j``, where ``below`` counts nothing, is it counted here."""
        i = path[-1] + (strict == self._above)
        if 0 < i < len(self._weights()[2][len(path) - 1]):
            at = (*path[:-1], i)
            self.below(at)
            return self._below[at][1]
        return self._sums(path, strict)

    def tie(self, path: Path) -> tuple[Any, Assignment]:
        """(weight, answer) of one answer keyed ``path`` on every position:
        one that the frontier sums at ``W_j[path[-1]]`` count kept and not
        strictly kept."""
        tie = self._ties.get(path)
        if tie is None:
            computing(("tie", path))
            assignment = self._witness(path, self._frontier(path, False), self._frontier(path, True))
            tie = self._ties[path] = (self.ranking.weight_of(assignment), assignment)
        return tie

    def _witness(self, path: Path, kept: _Sums, strict: _Sums) -> Assignment:
        """One answer ``kept`` counts and ``strict`` does not, top down over
        the sorted groups from the root's one group.  While the difference is
        unplaced a node takes the lowest row of its group's kept range whose
        kept product of child group sums exceeds its strict one (a row outside
        the strict range places it), then any kept row; a child whose kept
        group sum exceeds its strict one is where the difference goes on.
        Below the frontier a node takes its group's first live row."""
        tree = self._weights()[0]
        counts = subtree_counts(tree)

        def products(node: int, sums: _Sums, rows: Iterable[int]) -> Iterator[int]:
            """Per row of ``rows`` the product of ``node``'s children's group sums."""
            factors = [
                map(
                    (sums[c] if c in sums else group_sums(tree, node, c, counts[c])).__getitem__,
                    map(tree.parent_group_ids(node, c).__getitem__, rows),
                )
                for c in tree.children(node)
            ]
            ones: Iterator[int] = repeat(1)
            return reduce(partial(map, mul), factors, ones)

        chosen: dict[int, tuple[Any, ...]] = {}
        pending = [(tree.root, 0, True)]
        while pending:
            node, g, differ = pending.pop()
            live, keys, _ = self._sorted(node)[0][g]
            first, last, low, high = 0, 1, 0, 1  # below the frontier: the first live row
            if node in kept:
                (start, stop), (inner, outer) = self._cut(node, path, False), self._cut(node, path, True)
                first, last, low, high = start(keys), stop(keys), inner(keys), outer(keys)
            checkpoint("bisection.witness", rows=last - first)
            # The kept rows by index, so the first one that qualifies is the lowest.
            rows = sorted(live[first:last])
            outside = set(chain(live[first:low], live[high:last])).__contains__
            behind: Iterator[int] = (
                map(mul, map(not_, map(outside, rows)), products(node, strict, rows)) if differ else repeat(0)
            )
            row = next(compress(rows, map(gt, products(node, kept, rows), behind)))
            chosen[node] = tree.rows(node)[row]
            differ = differ and not outside(row)
            for c in tree.children(node):
                h = tree.parent_group_ids(node, c)[row]
                down = differ and c in kept and kept[c][h] > strict[c][h]
                differ = differ and not down
                pending.append((c, h, down))
        return tree.assignment_of(chosen)

    def _range(self, handle: BisectionHandle) -> tuple[Path, int, int]:
        """``handle``'s block and bounds; a one-key range before the last
        position is that key's block over the next position's keys."""
        keys = self._weights()[2]
        prefix, lo, end = handle
        hi = len(keys[len(prefix)]) if end is None else end
        while hi - lo == 1 and len(prefix) < len(keys) - 1:
            prefix, lo, hi = (*prefix, lo), 0, len(keys[len(prefix) + 1])
        return prefix, lo, hi

    def _weight_at(self, path: Path) -> Any:
        """The keys ``path`` names (a LEX weight or its prefix; MIN/MAX: the key)."""
        keys = self._weights()[2]
        weight = tuple(keys[k][i] for k, i in enumerate(path))
        return weight if self._lex else weight[0]

    def step(self, interval: WeightInterval, handle: BisectionHandle) -> PivotStep:
        prefix, lo, hi = self._range(handle)
        low, high = self.below((*prefix, lo)), self.below((*prefix, hi))
        if hi - lo == 1:
            # One key of the last position: the whole handle is one tie block.
            weight, assignment = self.tie((*prefix, lo))
            return PivotStep(assignment, weight, self._c, (prefix, lo, lo), 0, (prefix, hi, hi), 0)
        # Split in two on one count, nothing equal.
        mid = (lo + hi) // 2
        below = self.below((*prefix, mid))
        return PivotStep(
            {}, self._weight_at((*prefix, mid)), self._c,
            (prefix, lo, mid), below - low, (prefix, mid, hi), high - below,
        )

    def terminal(self, interval: WeightInterval, handle: BisectionHandle, keep: Collection[str]) -> BisectionTerminal:
        return BisectionTerminal(self, handle, keep)

    def estimated_bytes(self) -> int:
        """Accounting proxy for the row keys, ``W``, the sorted groups and the
        memos (a count's frontier sums among them)."""
        held = 0 if self._base is None else sum(len(c) for keyed in self._base[1] for c in keyed.values())
        grouped = sum(len(g[0]) * (1 + len(ids)) for groups, ids in list(self._groups.values()) for g in groups)
        summed = sum(len(s) for _, sums in list(self._below.values()) for s in sums.values())
        return 16 * held + 24 * grouped + 8 * summed + 64 * len(self._below) + 256 * len(self._ties)


class BisectionTerminal:
    """The candidates of one :class:`WeightBisection` handle; a select
    bisects the rest, position by position, on the source's memoized counts."""

    def __init__(self, source: WeightBisection, handle: BisectionHandle, keep: Collection[str]) -> None:
        self.source, self.keep = source, keep
        self.range = prefix, lo, hi = source._range(handle)
        self._size = source.below((*prefix, hi)) - source.below((*prefix, lo))

    def __len__(self) -> int:
        return self._size

    def estimated_bytes(self) -> int:
        return 64

    def select(self, position: int) -> tuple[Any, Assignment]:
        source, below = self.source, self.source.below
        prefix, lo, hi = self.range
        rank = below((*prefix, lo)) + position
        while True:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if below((*prefix, mid)) <= rank else (lo, mid)
            path = (*prefix, lo)
            if len(path) == len(source._positions):
                break
            rank -= below(path)  # into the block: its ranks start at 0
            prefix, lo, hi = source._range((path, 0, None))
        weight, assignment = source.tie(path)
        return weight, project(assignment, self.keep)


def row_sums(tree: MaterializedTree, node: int, ranking: RankingFunction, owned: list[str]) -> list[Any]:
    """Per row of ``node`` the SUM of its ``owned`` variables' weights, folded
    in ``owned``'s order (``row_weight``, as the trims fold it)."""
    checkpoint("cover.row_sums", rows=len(tree.rows(node)))
    return [row_weight(ranking, tree.variables(node), row, owned) for row in tree.rows(node)]


#: A :class:`CoverCounting` handle: the folds ``(low, high)`` its candidates
#: lie strictly between (``None``: unbounded).
CoverHandle = tuple[Any, Any]
#: A live R row (w_R, up, its S group, row index); what a source builds first.
_Row = tuple[Any, int, _Group, int]
#: A live R row and the range ``[start, stop)`` of its group inside a handle.
_Range = tuple[_Row, int, int]
_Built = tuple[list[_Row], MaterializedTree, MaterializedTree, dict[int, list[int]]]

#: How many handles' ranges a :class:`CoverCounting` carries: two per step,
#: for as many steps as a prepared query's step cache holds by default.
CARRIED_RANGES_LIMIT = 512


class CoverCounting:
    """The exact SUM candidate source over a cover pair: counting, no trims.

    Theorem 5.6 / Lemma D.1 put every weighted variable of a tractable SUM
    on two adjacent join-tree nodes R and S (one node: :class:`WeightBisection`
    keyed by its row sums).  Rooted at R, with S a child, an answer is an R
    row r, an S row s of r's join group and ``up(r) · down(s)`` extensions
    (r's other subtree counts, s's own: Example 2.1), weighing
    ``w_R(r) + w_S(s)`` under μ (shared variables to R).  So with each S
    group's rows sorted by ``w_S`` and prefix sums of ``down``, the answers
    of a handle are per R row one contiguous range of its group.  The
    root's ranges are the whole groups; a child's are cut from its parent's
    by the split that counts the parent's lt and gt, and carried to the
    child's handle, so a step costs O(live rows of its handle · log group)
    and bisects no row over its whole group again.  A step is one pass over
    the ranges: the weighted median of the per-row range medians is a
    1/4-pivot (Section 4), and lt and gt are counted by the same cuts that
    carry the children; the terminal sorts the pairs left in the ranges,
    each standing for its ``up · down`` answers.  Handles carry bounds in
    that fold; a pair reports the ``weight_of`` of its decoded answer,
    memoized per pair.  Everything is built on the first step.
    """

    strategy = "exact-pivot"
    c = 0.25  # the weighted median of the per-row range medians (Section 4)

    def __init__(
        self, query: JoinQuery, db: Database, ranking: RankingFunction, tree_cache: TreeCache,
        total: int, cover: tuple[JoinTree, tuple[int, ...]],
    ) -> None:
        self.query, self.db, self.ranking = query, db, ranking
        self.tree_cache, self.total, self.size = tree_cache, total, db.size
        self.root: CoverHandle = (None, None)
        self._cover = cover
        self._built: _Built | None = None
        self._decoded: dict[tuple[int, int], tuple[Any, Assignment]] = {}
        # handle -> its ranges, cut by its parent's split; never mutated.
        self._carried: CappedCache = CappedCache(CARRIED_RANGES_LIMIT)

    def _build(self) -> _Built:
        """(live R rows, base tree, the tree rooted at R, its subtree counts)."""
        if self._built is None:
            join_tree, (r, s) = self._cover
            base = tree = self.tree_cache.get(self.query, self.db)
            refuse_nan_sums(base, self.ranking)
            if tree.root != r or s not in tree.children(r):
                tree = MaterializedTree(self.query, self.db, join_tree.rooted(r), self.tree_cache.states)
            mu = variable_to_atom_assignment(self.query, self.ranking.weighted_variables, [r, s])
            w_r, w_s = (row_sums(tree, n, self.ranking, owned_variables(mu, n)) for n in (r, s))
            counts, kernel = subtree_counts(tree), active_backend()
            up = [1] * len(w_r)
            for child in set(tree.children(r)) - {s}:
                sums = group_sums(tree, r, child, counts[child])
                up = kernel.multiply(up, kernel.take(sums, tree.parent_group_ids(r, child)))
            groups = sorted_groups(tree.child_groups(r, s).values(), w_s, counts[s])
            ids = tree.parent_group_ids(r, s)
            rows = [(w_r[i], up[i], groups[ids[i]], i) for i in range(len(w_r)) if up[i]]
            self._built = rows, base, tree, counts
        return self._built

    def ranges(self, handle: CoverHandle) -> list[_Range]:
        """Per live R row, the range ``[start, stop)`` of its group whose
        folds lie strictly inside ``handle`` (rows with an empty one left
        out): what the parent's split carried, else bisected afresh (the
        root, and a handle the cap kept no entry for)."""
        carried = self._carried.get(handle)
        if carried is not None:
            checkpoint("cover.ranges", rows=len(carried))
            return carried
        rows = self._build()[0]
        checkpoint("cover.ranges", rows=len(rows))
        return self._bisected(handle, rows)

    @staticmethod
    def _bisected(handle: CoverHandle, rows: list[_Row]) -> list[_Range]:
        """``handle``'s ranges bisected on its fold bounds over whole groups
        (an unbounded side bisects nothing: the root's are whole groups)."""
        low, high = handle
        ranges = []
        for row in rows:
            fold, weights = partial(add, row[0]), row[2][1]
            start = 0 if low is None else bisect_right(weights, low, key=fold)
            stop = len(weights) if high is None else bisect_left(weights, high, key=fold)
            if start < stop:
                ranges.append((row, start, stop))
        return ranges

    def decode(self, pair: tuple[int, int]) -> tuple[Any, Assignment]:
        """(weight, answer) of one answer through an (R row, S row) ``pair``:
        the first live member of every other group, top down."""
        found = self._decoded.get(pair)
        if found is None:
            computing(("decode", pair))
            checkpoint("cover.decode")
            _, base, tree, counts = self._build()
            chosen = dict(zip(self._cover[1], pair))  # node -> row index
            for node in tree.nodes_top_down():
                row = tree.rows(node)[chosen[node]]
                for child in tree.children(node):
                    if child not in chosen:
                        members = tree.child_groups(node, child)[tree.parent_group_key(node, row, child)]
                        chosen[child] = next(m for m in members if counts[child][m])
            assignment = base.assignment_of({n: tree.rows(n)[i] for n, i in chosen.items()})
            found = self._decoded[pair] = (self.ranking.weight_of(assignment), assignment)
        return found

    @staticmethod
    def median(ranges: list[_Range]) -> tuple[Any, tuple[int, int]]:
        """The weighted median of the per-row range medians: its fold and
        (R row, S row) pair, a 1/4-pivot of the answers ``ranges`` hold."""
        medians: list[tuple[Any, int, int, int]] = []  # per row: (fold, answers, pair)
        for (own, up, (members, weights, down), r), start, stop in ranges:
            size = down[stop] - down[start]
            m = bisect_right(down, down[start] + (size - 1) // 2) - 1
            medians.append((own + weights[m], up * size, r, members[m]))
        medians.sort(key=itemgetter(0))
        ends = list(accumulate(median[1] for median in medians))
        fold, _, r, s = medians[bisect_left(ends, (ends[-1] + 1) // 2)]
        return fold, (r, s)

    @staticmethod
    def split(ranges: list[_Range], fold: Any) -> tuple[int, int, list[_Range], list[_Range]]:
        """How many answers of ``ranges`` fold strictly below / above
        ``fold``, and the ranges of each side: every row's range cut at
        ``fold`` (rows with an empty side left out of that side)."""
        lt = gt = 0
        below: list[_Range] = []
        above: list[_Range] = []
        for row, start, stop in ranges:
            own, up, (_, weights, down), _ = row
            key = partial(add, own)
            cut = bisect_left(weights, fold, start, stop, key=key)
            if start < cut:
                lt += up * (down[cut] - down[start])
                below.append((row, start, cut))
            cut = bisect_right(weights, fold, cut, stop, key=key)
            if cut < stop:
                gt += up * (down[stop] - down[cut])
                above.append((row, cut, stop))
        return lt, gt, below, above

    def counts(self, handle: CoverHandle, ranges: list[_Range], fold: Any) -> tuple[int, int]:
        """How many of ``handle``'s answers (its ``ranges``) fold strictly
        below / above ``fold``; each side's ranges are carried to its handle."""
        lt, gt, below, above = self.split(ranges, fold)
        self._carried[handle[0], fold] = below
        self._carried[fold, handle[1]] = above
        return lt, gt

    def step(self, interval: WeightInterval, handle: CoverHandle) -> PivotStep:
        ranges = self.ranges(handle)
        pivot, pair = self.median(ranges)
        weight, assignment = self.decode(pair)
        lt, gt = self.counts(handle, ranges, pivot)
        return PivotStep(assignment, weight, self.c, (handle[0], pivot), lt, (pivot, handle[1]), gt)

    def pairs(self, handle: CoverHandle) -> list[tuple[Any, int, int, int]]:
        """``handle``'s (fold, answers, R row, S row) pairs in fold order."""
        pairs = [
            (own + weights[k], up * (down[k + 1] - down[k]), r, members[k])
            for (own, up, (members, weights, down), r), start, stop in self.ranges(handle)
            for k in range(start, stop)
        ]
        checkpoint("cover.terminal", rows=len(pairs))
        pairs.sort(key=itemgetter(0))
        return pairs

    def terminal(self, interval: WeightInterval, handle: CoverHandle, keep: Collection[str]) -> CoverTerminal:
        return CoverTerminal(self.decode, self.pairs(handle), keep)

    def estimated_bytes(self) -> int:
        """The per-row arrays, the decoded answers and the carried ranges."""
        held = 0 if self._built is None else 2 * len(self._built[0]) + sum(map(len, self._built[3].values()))
        carried = sum(map(len, list(self._carried.values())))
        return 32 * held + 256 * len(self._decoded) + 64 * carried


class CoverTerminal:
    """Candidates in fold order as ``(fold, answers, *key)`` pairs, each
    standing for its ``answers``: a select bisects their running totals and
    ``decode``s the key once; a warm select is a copy."""

    def __init__(
        self, decode: Callable[[Any], tuple[Any, Assignment]], pairs: Sequence[tuple[Any, ...]],
        keep: Collection[str],
    ) -> None:
        self.decode, self.keep = decode, keep
        self.keys = [p[2:] for p in pairs]
        self.ends = list(accumulate(p[1] for p in pairs))
        self._picks: dict[int, tuple[Any, Assignment]] = {}

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def estimated_bytes(self) -> int:
        return 24 * len(self.keys) + 64 * len(self._picks)

    def select(self, position: int) -> tuple[Any, Assignment]:
        pick = self._picks.get(position)
        if pick is None:
            weight, answer = self.decode(self.keys[bisect_right(self.ends, position)])
            pick = self._picks[position] = weight, project(answer, self.keep)
        return pick[0], dict(pick[1])


def run_pivoting(
    source: CandidateSource,
    phi: float | None,
    index: int | None,
    keep: Collection[str],
    termination_size: int,
    *,
    epsilon: float | None = None,
    step_cache: MutableMapping[WeightInterval, PivotStep] | None = None,
    answer_cache: MutableMapping[WeightInterval, Terminal] | None = None,
) -> QuantileResult:
    """Algorithm 1 over a candidate source: the one pivoting loop.

    Serial execution runs it over a prepared query's :class:`PreparedSource`,
    sharded execution over a :class:`~repro.parallel.merger.RankMerger`; see
    :func:`pivoting_quantile` for the parameters.  ``keep`` is the set of
    variables the returned assignment is projected to.
    """
    exact = source.strategy != "approx-pivot"
    total = source.total
    target = resolve_target(phi, index, total)
    # Without a shared cache each call memoizes into its own throwaway dict.
    if step_cache is None:
        step_cache = {}
    if answer_cache is None:
        answer_cache = {}

    interval = WeightInterval()
    handle = source.root
    current_count = total
    remaining_index = target
    stats: list[IterationStats] = []
    iteration_cap = 0

    while current_count > termination_size:
        checkpoint("quantile.iteration")
        step = step_cache.get(interval)
        if step is None:
            computing(interval)
            step = step_cache[interval] = source.step(interval, handle)
        if iteration_cap == 0:
            # Derive a generous cap from the guaranteed elimination fraction.
            c = max(step.pivot_c, 1e-3)
            iteration_cap = int(math.ceil(math.log(max(total, 2)) / -math.log(1 - c))) + 20
        if len(stats) >= iteration_cap:
            raise SolverError(
                f"pivoting did not converge within {iteration_cap} iterations; "
                "this indicates an inconsistent trimmer"
            )
        count_lt, count_gt = step.count_lt, step.count_gt
        count_eq = max(0, current_count - count_lt - count_gt)

        if remaining_index < count_lt:
            chosen = "lt"
            interval = interval.with_high(step.pivot_weight, strict=True)
            handle, current_count = step.lt, count_lt
        elif remaining_index < count_lt + count_eq:
            chosen = "eq"
        else:
            chosen = "gt"
            remaining_index -= count_lt + count_eq
            interval = interval.with_low(step.pivot_weight, strict=True)
            handle, current_count = step.gt, count_gt
        stats.append(
            IterationStats(
                pivot_weight=step.pivot_weight,
                c=step.pivot_c,
                count_lt=count_lt,
                count_eq=count_eq,
                count_gt=count_gt,
                candidate_count=count_eq if chosen == "eq" else current_count,
                chosen=chosen,
            )
        )
        if chosen == "eq" or current_count == 0:
            # An emptied branch can happen with lossy trims (all candidates
            # lost) or when the remaining candidates all share the pivot
            # weight; fall back to returning the pivot, whose position error
            # is already bounded.
            assignment = project(step.pivot_assignment, keep)
            weight = step.pivot_weight
            break
    else:
        # Sort the remaining candidates and finish with plain selection; the
        # terminal of an interval is shared across calls through answer_cache
        # (targets landing in one interval pay the enumerate-and-sort once).
        answers = answer_cache.get(interval)
        if answers is None:
            computing(interval)
            answers = source.terminal(interval, handle, keep)
            if not len(answers):
                raise SolverError("no candidate answers remained to materialize")
            answer_cache[interval] = answers
        weight, assignment = answers.select(min(remaining_index, len(answers) - 1))
    return QuantileResult(
        assignment=assignment,
        weight=weight,
        target_index=target,
        total_answers=total,
        strategy=source.strategy,
        exact=exact,
        epsilon=None if exact else epsilon,
        iterations=len(stats),
        stats=tuple(stats),
    )


def pivoting_quantile(
    query: JoinQuery,
    db: Database,
    ranking: RankingFunction,
    trimmer: Trimmer | None,
    phi: float | None = None,
    index: int | None = None,
    epsilon: float | None = None,
    termination_size: int | None = None,
    pivot_cache: MutableMapping[WeightInterval, PivotStep] | None = None,
    answer_cache: MutableMapping[WeightInterval, Terminal] | None = None,
    tree_cache: TreeCache | None = None,
    source: PreparedSource | None = None,
) -> QuantileResult:
    """Run Algorithm 1 and return the requested (approximate) quantile.

    Exactly one of ``phi`` (relative position) and ``index`` (absolute 0-based
    position, the *selection problem*) must be given.

    Parameters
    ----------
    trimmer:
        The ε-lossy SUM trimmer whose ``trim_interval`` rewrites the base to
        each candidate interval, for an ``"approx-pivot"`` answer (``None``
        with a ``source``).
    epsilon:
        Reported approximation parameter.
    termination_size:
        Materialize-and-select once at most this many candidates remain
        (default: the source's ``size``, |D| as in Algorithm 1).
    pivot_cache:
        Mutable mapping from candidate interval to :class:`PivotStep`, shared
        across calls with the same (query, db, ranking, trimmer) to amortize
        pivot selection, trimming, and counting over repeated φ values.
    answer_cache:
        Mutable mapping from terminal candidate interval to its weight-sorted
        answers (already projected to the query's variables), sharing the
        final sort-and-select step across calls that end in one interval.
    tree_cache:
        Shared :class:`~repro.joins.tree_cache.TreeCache` so pivot
        selection, partition counting, and terminal materialization reuse
        one materialized tree per (query, database) pair instead of each
        rebuilding it.
    source:
        A prepared query's prebuilt source over this query, db and ranking
        (built once instead of validating, canonicalizing, and counting on
        every call), which then supplies ``total``, the tree cache, and the
        result's strategy and exactness; ``epsilon`` is reported by an
        ``"approx-pivot"`` one only.
    """
    if source is None:
        if trimmer is None:
            raise SolverError("pivoting_quantile needs a trimmer or a source")
        ranking.validate_for(query.variables)
        base_query, base_db = ensure_canonical(query, db)
        if tree_cache is None:
            # Even a one-shot call profits: the tree of each candidate pair is
            # shared between its counting pass and the next pivot selection.
            tree_cache = TreeCache()
        source = LocalCandidates(base_query, base_db, ranking, trimmer, tree_cache)
    if termination_size is None:
        termination_size = max(source.size, 1)
    return run_pivoting(
        source,
        phi,
        index,
        set(query.variables),
        termination_size,
        epsilon=epsilon,
        step_cache=pivot_cache,
        answer_cache=answer_cache,
    )


def project(assignment: Assignment, variables: Collection[str]) -> Assignment:
    """Drop helper variables introduced by canonicalization or trimming."""
    return {
        variable: value for variable, value in assignment.items() if variable in variables
    }
