"""The Yannakakis algorithm: full reduction and answer materialization.

Algorithm 1 falls back to materializing the remaining candidate answers once
their number drops to at most the database size; the classic Yannakakis
algorithm does this in time linear in input plus output for acyclic queries.

Both entry points accept an optional pre-built
:class:`~repro.joins.message_passing.MaterializedTree` (typically served by a
:class:`~repro.joins.tree_cache.TreeCache`), so the per-atom materialization
and join-group hashing are shared with counting and pivot selection instead
of being rebuilt here.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection, Iterable, Sequence
from itertools import chain, compress, repeat
from typing import Any

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.counting import group_sums, subtree_counts
from repro.joins.message_passing import MaterializedTree
from repro.kernels import active_backend
from repro.query.join_query import JoinQuery
from repro.ranking.base import RankingFunction, Weight
from repro.runtime import checkpoint

Assignment = dict[str, Any]
_Index = dict[int, list[int]]  # per placed node, the row of each partial answer
_Fold = tuple[int, list[Weight]]  # a placed node and one weight per row of it


def _reduced_row_flags(tree: MaterializedTree) -> dict[int, list[int]]:
    """Compute which rows survive the full reducer (bottom-up + top-down
    semi-join passes).  A surviving row (nonzero flag) participates in at
    least one answer.  Bottom-up, a row dies if some child join group has no
    surviving row: its subtree count is 0.  The top-down pass runs as
    whole-column kernel ops over the tree's dense group-ordinal arrays: a
    semijoin is a per-group sum of the flags, clamped to 0/1 and gathered
    through the other side's ordinals."""
    kernel = active_backend()
    alive = dict(subtree_counts(tree))
    # Top-down: a child row dies if no surviving parent row selects its group.
    for node in tree.nodes_top_down():
        checkpoint("yannakakis.reduce", rows=len(tree.rows(node)))
        for child in tree.children(node):
            num_groups = tree.num_child_groups(node, child)
            selected = kernel.sum_by_group(
                tree.parent_group_ids(node, child),
                alive[node],
                num_groups + 1,  # sentinel slot collects unmatched parents
            )
            selected01 = [1 if count else 0 for count in selected[:num_groups]]
            gathered = kernel.take(selected01, tree.child_group_ids(node, child))
            alive[child] = kernel.multiply(alive[child], gathered)
    return alive


def full_reduce(
    query: JoinQuery, db: Database, tree: MaterializedTree | None = None
) -> Database:
    """Return a copy of the database with all dangling tuples removed.

    After reduction every remaining tuple participates in at least one query
    answer (for the materialized per-atom view of the data).
    """
    if tree is None:
        tree = MaterializedTree(query, db)
    alive = _reduced_row_flags(tree)
    kernel = active_backend()
    reduced: dict[str, Relation] = {}
    for node in tree.nodes_top_down():
        checkpoint("yannakakis.rebuild", rows=len(tree.rows(node)))
        rows = kernel.take(tree.rows(node), kernel.masked_filter(alive[node]))
        name = query[node].relation
        if name in reduced:
            # Self-join: intersect survivors across atom occurrences.
            existing = reduced[name]
            rows = [row for row in rows if row in existing]
        reduced[name] = Relation(name, tree.variables(node), rows)
    return Database(reduced)


def evaluate(
    query: JoinQuery,
    db: Database,
    limit: int | None = None,
    tree: MaterializedTree | None = None,
) -> list[Assignment]:
    """Materialize the query answers (time linear in input + output).

    The enumeration is iterative — an explicit odometer over the join tree's
    nodes in top-down order — so arbitrarily deep join trees (e.g. very long
    path queries) cannot hit Python's recursion limit, and ``limit`` stops
    the walk as soon as enough answers were produced.

    Parameters
    ----------
    limit:
        Optional cap on the number of produced answers (useful to guard
        against accidentally materializing a huge result).
    tree:
        Optionally, an already materialized tree for (query, db).

    Returns
    -------
    list of assignments (dictionaries from variables to values).
    """
    if limit is not None and limit <= 0:
        return []
    if tree is None:
        tree = MaterializedTree(query, db)
    alive = _reduced_row_flags(tree)

    # Parents before children: once rows are chosen for positions 0..k-1, the
    # candidate rows for position k are the alive members of the join group
    # its parent's chosen row selects.
    order = tree.nodes_top_down()
    position_of = {node: position for position, node in enumerate(order)}
    parent_of: dict[int, int] = {}
    for parent in order:
        for child in tree.children(parent):
            parent_of[child] = parent
    node_rows = {node: tree.rows(node) for node in order}
    node_variables = {node: tree.variables(node) for node in order}
    root = tree.root
    root_candidates = active_backend().masked_filter(alive[root])
    if not root_candidates:
        return []

    answers: list[Assignment] = []
    depth = len(order)
    # Per position: the candidate row indices and the cursor into them.
    candidates: list[list[int]] = [[] for _ in range(depth)]
    cursors = [0] * depth
    candidates[0] = root_candidates

    def candidates_for(position: int) -> list[int]:
        node = order[position]
        parent = parent_of[node]
        parent_position = position_of[parent]
        parent_row = node_rows[parent][candidates[parent_position][cursors[parent_position]]]
        key = tree.parent_group_key(parent, parent_row, node)
        groups = tree.child_groups(parent, node)
        node_alive = alive[node]
        return [i for i in groups.get(key, ()) if node_alive[i]]

    position = 0
    while position >= 0:
        if position == depth:
            # One full choice vector: assemble the assignment.
            assignment: Assignment = {}
            for slot in range(depth):
                node = order[slot]
                row = node_rows[node][candidates[slot][cursors[slot]]]
                assignment.update(zip(node_variables[node], row))
            answers.append(assignment)
            checkpoint("yannakakis.answer", rows=1)
            if limit is not None and len(answers) >= limit:
                return answers
            position -= 1
            cursors[position] += 1
            continue
        if position > 0 and cursors[position] == 0:
            candidates[position] = candidates_for(position)
        if cursors[position] >= len(candidates[position]):
            # Exhausted this slot: backtrack and advance the previous one.
            cursors[position] = 0
            position -= 1
            if position >= 0:
                cursors[position] += 1
            continue
        position += 1
        if position < depth:
            cursors[position] = 0
    return answers


class SortedAnswers:
    """The answers of :func:`evaluate`, sorted by weight, expanded only as far
    as the ranking needs.

    Position for position (ties included) this is
    ``sorted(evaluate(query, db), key=ranking.weight_of)`` without a dict per
    answer.  The tree is expanded level by level in top-down node order —
    every partial answer replaced in place by the members of its join group
    that have an answer below them — giving one row-index column per node in
    :func:`evaluate`'s odometer order.  Weights are folded as ``weight_of``
    folds them (``combine`` from ``identity`` in ranking order) from
    ``variable_weight`` computed once per node row, so one stable argsort
    reproduces the keyed sort.

    The expansion stops before the *deferred* nodes: the longest suffix of
    the top-down order whose nodes only multiply answers.  Such a node is the
    last occurrence of no weighted variable, or it hangs off the expanded
    prefix and is that only for join-key variables whose weight is one per
    join group.  A prefix answer stands for the product of its frontier
    edges' group counts — answers of its weight, adjacent in the stable
    order — so :meth:`select` bisects to it and decodes the one extension
    asked for, and :meth:`columns` expands the sorted prefix on.  ``keep``
    restricts the assignments to those variables.
    """

    def __init__(
        self, tree: MaterializedTree, ranking: RankingFunction, keep: Collection[str] | None = None
    ) -> None:
        kernel = active_backend()
        self._tree, self._combine = tree, ranking.combine
        self._counts = subtree_counts(tree)
        order = tree.nodes_top_down()
        self._parent_of = {child: node for node in order for child in tree.children(node)}
        # The (node, column) each variable's value comes from: first occurrence
        # fixes the key order, last occurrence the value — dict.update semantics.
        source: dict[str, tuple[int, int]] = {}
        for node in order:
            source.update((v, (node, p)) for p, v in enumerate(tree.variables(node)))
        weighted = [v for v in ranking.weighted_variables if v in source]
        self._members = {
            node: _live_members(tree, self._parent_of[node], node, self._counts[node])
            for node in order[1:]
        }
        # Deferred, last node first, as long as each only multiplies answers.
        self._deferred: list[int] = []
        keyed_parents: set[int] = set()
        for node in reversed(order[1:]):
            checkpoint("yannakakis.defer")
            parent = self._parent_of[node]
            mine = [v for v in weighted if source[v][0] == node]
            if node in keyed_parents or not all(
                v in tree.join_variables(parent, node)
                and tree.group_weights(parent, node, source[v][1], ranking) is not None
                for v in mine
            ):
                break
            if mine:
                keyed_parents.add(parent)
            self._deferred.insert(0, node)
        # The weights to fold, next one last: (node whose rows index it, column).
        folds: list[_Fold] = []
        for origin, p in map(source.__getitem__, reversed(weighted)):
            if origin in self._deferred:
                # One weight per join group: read where the parent row points.
                parent = self._parent_of[origin]
                per_group = [*tree.group_weights(parent, origin, p, ranking), None]
                per_row = kernel.take(per_group, tree.parent_group_ids(parent, origin))
                folds.append((parent, per_row))
            else:
                folds.append((origin, tree.weight_column(origin, p, ranking)))
        prefix = order[: len(order) - len(self._deferred)]
        index, weights = self._expand(prefix, {}, [ranking.identity], folds)
        by_weight = kernel.argsort(weights)
        self._weights = _gather(weights, by_weight)
        self._index = {node: _gather(rows, by_weight) for node, rows in index.items()}
        # Per join group of a deferred node, the answers below its members (the
        # counting message); their product over a prefix answer's frontier edges
        # is how many answers it stands for, kept as running totals (with
        # nothing deferred: 1, 2, ... as a range, not a list).
        self._sums = {
            node: group_sums(tree, self._parent_of[node], node, self._counts[node])
            for node in self._deferred
        }
        multiplicity = [1] * len(weights)
        for node in self._deferred:
            parent = self._parent_of[node]
            if parent in index:
                groups = kernel.take(tree.parent_group_ids(parent, node), self._index[parent])
                multiplicity = kernel.multiply(multiplicity, kernel.take(self._sums[node], groups))
        self._ends: Sequence[int] = (
            kernel.prefix_sum(multiplicity) if self._deferred else range(1, len(weights) + 1)
        )
        self._kept = {v: origin for v, origin in source.items() if keep is None or v in keep}
        self._picks: dict[int, tuple[Weight, Assignment]] = {}

    def _expand(
        self, nodes: list[int], index: _Index, weights: list[Weight], folds: list[_Fold]
    ) -> tuple[_Index, list[Weight]]:
        """Grow the partial answers by ``nodes``: each level replaces every
        one by ``fanout`` copies, one per member, and charges those it adds.
        The first grows the empty one (a ``weights`` of length 1, no ``index``)."""
        tree, kernel = self._tree, active_backend()
        produced = len(weights) if index else 0
        for node in nodes:
            members: Iterable[int]
            if node == tree.root:
                root_rows = kernel.masked_filter(self._counts[node])
                members, fanout = root_rows, [len(root_rows)]
            else:
                parent, slices = self._parent_of[node], self._members[node]
                selected = kernel.take(tree.parent_group_ids(parent, node), index[parent])
                members = chain.from_iterable(map(slices.__getitem__, selected))
                fanout = kernel.take(list(map(len, slices)), selected)
            grown = sum(fanout)
            checkpoint("yannakakis.answer", rows=grown - produced)
            produced = grown
            index = {placed: _replicate(rows, fanout) for placed, rows in index.items()}
            index[node] = list(members)
            weights = _replicate(weights, fanout)
            # Fold as early as ranking order allows: a partial answer's weight is
            # computed once and replicated, never recomputed per extension.
            while folds and folds[-1][0] in index:
                placed, per_row = folds.pop()
                weights = list(map(self._combine, weights, map(per_row.__getitem__, index[placed])))
        return index, weights

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def select(self, position: int) -> tuple[Weight, Assignment]:
        """The (weight, assignment) at ``position``: decoded once, a dict per call."""
        pick = self._picks.get(position)
        if pick is None:
            pick = self._picks[position] = self._decode(position)
        return pick[0], dict(pick[1])

    def _decode(self, position: int) -> tuple[Weight, Assignment]:
        tree = self._tree
        rank = bisect_right(self._ends, position)
        start = self._ends[rank - 1] if rank else 0
        # ``block`` answers share the rows chosen so far; ``offset`` is the
        # position among them, in odometer order: earlier nodes turn slower.
        offset, block = position - start, self._ends[rank] - start
        rows = {node: column[rank] for node, column in self._index.items()}
        for node in self._deferred:
            checkpoint("yannakakis.decode")
            parent, counts = self._parent_of[node], self._counts[node]
            group = tree.parent_group_ids(parent, node)[rows[parent]]
            # Each member stands for its own subtree count times the other
            # open edges' group counts (``block``, once this edge's is out).
            block //= self._sums[node][group]
            for member in self._members[node][group]:
                size = counts[member] * block
                if offset < size:
                    break
                offset -= size
            rows[node], block = member, size
        return self._weights[rank], {
            variable: tree.node_column(node, p)[rows[node]]
            for variable, (node, p) in self._kept.items()
        }

    def columns(self) -> tuple[list[Weight], dict[str, list[Any]]]:
        """Every answer: the ascending weight column and one parallel value
        column per kept variable (in :func:`evaluate`'s dict key order)."""
        index, weights = self._expand(self._deferred, self._index, self._weights, [])
        # Plain indexing: answers must carry evaluate()'s very objects,
        # whatever mix of int/float/bool a column holds.
        return weights, {
            variable: _gather(self._tree.node_column(node, p), index[node])
            for variable, (node, p) in self._kept.items()
        }

    def estimated_bytes(self) -> int:
        """8 bytes a slot: per prefix answer a weight, a row per placed node and
        (some node deferred) a running total; per pick a weight and its values."""
        per_prefix = 1 + len(self._index) + bool(self._deferred)
        return 8 * (len(self._weights) * per_prefix + len(self._picks) * (1 + len(self._kept)))


def evaluate_sorted(
    query: JoinQuery,
    db: Database,
    ranking: RankingFunction,
    tree: MaterializedTree | None = None,
    keep: Collection[str] | None = None,
) -> SortedAnswers:
    """:class:`SortedAnswers` of (query, db), over ``tree`` if it is built."""
    return SortedAnswers(MaterializedTree(query, db) if tree is None else tree, ranking, keep)


def _live_members(
    tree: MaterializedTree, parent: int, child: int, counts: list[int]
) -> list[list[int]]:
    """Per join group of the edge its rows with an answer below them (nonzero
    ``counts``), ascending like evaluate()'s candidate lists."""

    def build() -> list[list[int]]:
        groups = tree.child_groups(parent, child).values()
        return [list(compress(rows, map(counts.__getitem__, rows))) for rows in groups]

    return tree.group_message(parent, child, "members", build)


def _replicate(values: Iterable[Any], counts: Iterable[int]) -> list[Any]:
    return list(chain.from_iterable(map(repeat, values, counts)))


def _gather(values: Sequence[Any], positions: Iterable[int]) -> list[Any]:
    return list(map(values.__getitem__, positions))
