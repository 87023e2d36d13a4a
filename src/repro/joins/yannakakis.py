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

from collections.abc import Collection, Iterable, Sequence
from itertools import chain, compress, repeat
from typing import Any

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.message_passing import MaterializedTree
from repro.kernels import active_backend
from repro.query.join_query import JoinQuery
from repro.ranking.base import RankingFunction, Weight
from repro.runtime import checkpoint

Assignment = dict[str, Any]
Row = tuple[Any, ...]

#: Weight-sorted answers as columns: the ascending weight column and one
#: parallel value column per variable (in :func:`evaluate`'s dict key order).
SortedAnswers = tuple[list[Weight], dict[str, list[Any]]]


def _reduced_row_flags(tree: MaterializedTree) -> dict[int, list[int]]:
    """Compute which rows survive the full reducer (bottom-up + top-down
    semi-join passes).  A surviving row (flag 1) participates in at least one
    answer.  Both passes run as whole-column kernel ops over the tree's dense
    group-ordinal arrays: a semijoin is a per-group sum of 0/1 alive flags,
    clamped back to 0/1 and gathered through the other side's ordinals."""
    kernel = active_backend()
    alive: dict[int, list[int]] = {
        node: [1] * len(tree.rows(node)) for node in tree.nodes_bottom_up()
    }
    # Bottom-up: a row dies if some child join group has no surviving row.
    for node in tree.nodes_bottom_up():
        checkpoint("yannakakis.reduce", rows=len(tree.rows(node)))
        node_alive = alive[node]
        for child in tree.children(node):
            group_live = kernel.sum_by_group(
                tree.child_group_ids(node, child),
                alive[child],
                tree.num_child_groups(node, child),
            )
            live01 = [1 if count else 0 for count in group_live]
            live01.append(0)  # sentinel: parent key with no child group
            gathered = kernel.take(live01, tree.parent_group_ids(node, child))
            node_alive = kernel.multiply(node_alive, gathered)
        alive[node] = node_alive
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
    reduced = Database()
    for node in tree.nodes_top_down():
        atom = query[node]
        checkpoint("yannakakis.rebuild", rows=len(tree.rows(node)))
        rows = kernel.take(tree.rows(node), kernel.masked_filter(alive[node]))
        name = atom.relation
        if name in reduced:
            # Self-join: intersect survivors across atom occurrences.
            existing = reduced[name]
            rows = [row for row in rows if row in existing]
            reduced.replace(Relation(name, tree.variables(node), rows))
        else:
            reduced.add(Relation(name, tree.variables(node), rows))
    return reduced


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


def evaluate_sorted(
    query: JoinQuery,
    db: Database,
    ranking: RankingFunction,
    tree: MaterializedTree | None = None,
    keep: Collection[str] | None = None,
) -> SortedAnswers:
    """The answers of :func:`evaluate`, sorted by weight, as whole columns.

    Position for position (ties included) this is
    ``sorted(evaluate(query, db), key=ranking.weight_of)`` without building
    a dict per answer.  The tree is expanded level by level in top-down node
    order — every partial answer replaced in place by its alive join-group
    members — giving one row-index column per node in :func:`evaluate`'s
    odometer order.  Weights are folded as ``weight_of`` folds them
    (``combine`` from ``identity`` over the ranking's variables in ranking
    order) from ``variable_weight`` computed once per node row, so one
    stable argsort reproduces the keyed sort.

    ``keep`` restricts the value columns to those variables.  One checkpoint
    per level charges the candidates that level adds (in total, the answers).
    """
    if tree is None:
        tree = MaterializedTree(query, db)
    alive = _reduced_row_flags(tree)
    kernel = active_backend()
    order = tree.nodes_top_down()
    parent_of = {child: node for node in order for child in tree.children(node)}
    # The (node, column) each variable's value comes from: first occurrence
    # fixes the key order, last occurrence the value — dict.update semantics.
    source: dict[str, tuple[int, int]] = {}
    for node in order:
        source.update((v, (node, p)) for p, v in enumerate(tree.variables(node)))
    # Weighted variables still to fold, next one last.
    pending = [v for v in reversed(ranking.weighted_variables) if v in source]

    # One partial answer (the empty one) grows into all of them: each level
    # replaces every partial answer by ``fanout`` copies, one per member.
    index: dict[int, list[int]] = {}
    weights: list[Weight] = [ranking.identity]
    produced = 0
    for node in order:
        members: Iterable[int]
        if node == tree.root:
            root_rows = kernel.masked_filter(alive[node])
            members, fanout = root_rows, [len(root_rows)]
        else:
            # Alive rows per join group, ascending like evaluate's candidate
            # lists; alive parent rows always select a group that has some.
            parent, node_alive = parent_of[node], alive[node]
            slices = [
                list(compress(rows, map(node_alive.__getitem__, rows)))
                for rows in tree.child_groups(parent, node).values()
            ]
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
        while pending and source[pending[-1]][0] in index:
            variable = pending.pop()
            origin, position = source[variable]
            per_row = tree.weight_column(origin, position, ranking)
            weights = list(
                map(ranking.combine, weights, map(per_row.__getitem__, index[origin]))
            )

    # Plain indexing from here on: answers must carry evaluate()'s very
    # objects, whatever mix of int/float/bool a column holds.
    by_weight = kernel.argsort(weights)
    if keep is not None:
        source = {v: origin for v, origin in source.items() if v in keep}
    sorted_index = {
        node: _gather(index[node], by_weight)
        for node in {node for node, _ in source.values()}
    }
    columns = {
        variable: _gather(tree.node_column(node, position), sorted_index[node])
        for variable, (node, position) in source.items()
    }
    return _gather(weights, by_weight), columns


def _replicate(values: Iterable[Any], counts: Iterable[int]) -> list[Any]:
    return list(chain.from_iterable(map(repeat, values, counts)))


def _gather(values: Sequence[Any], positions: Iterable[int]) -> list[Any]:
    return list(map(values.__getitem__, positions))
