"""Generic pivot selection (Algorithm 2, Section 4).

Given an acyclic join query, a database, and a subset-monotone ranking
function, compute a ``c``-pivot of the answer set in linear time: a query
answer such that at least a ``c`` fraction of the answers is ≤ it and at
least a ``c`` fraction is ≥ it, where ``c`` depends only on the query shape.

The algorithm is a message-passing median-of-medians: every tuple computes a
pivot partial answer for its subtree; join groups combine tuple pivots with a
weighted median (weights = subtree answer counts, Lemma 4.5); a tuple combines
the group pivots of its children and its own values by union (Lemma 4.6).
The pass runs on whole columns: one segmented weighted median per join-tree
edge, and no assignment is built but the pivot's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.database import Database
from repro.exceptions import EmptyResultError
from repro.joins.counting import subtree_counts
from repro.joins.message_passing import MaterializedTree
from repro.kernels import active_backend
from repro.pivot.weighted_median import segmented_weighted_median, weighted_median
from repro.query.join_query import JoinQuery
from repro.query.join_tree import RootedJoinTree
from repro.ranking.base import RankingFunction, Weight
from repro.runtime import checkpoint

Assignment = dict[str, Any]


@dataclass(frozen=True)
class PivotResult:
    """Outcome of pivot selection.

    Attributes
    ----------
    assignment:
        The pivot query answer (a full assignment of the query variables).
    weight:
        Its weight under the ranking function.
    c:
        The guaranteed pivot quality: at least a ``c`` fraction of answers is
        on each side of the pivot (Definition 3.1).
    total_answers:
        ``|Q(D)|``, computed as a by-product of the count messages.
    """

    assignment: Assignment
    weight: Any
    c: float
    total_answers: int


def select_pivot(
    query: JoinQuery,
    db: Database,
    ranking: RankingFunction,
    rooted: RootedJoinTree | None = None,
    tree: MaterializedTree | None = None,
) -> PivotResult:
    """Compute a ``c``-pivot of ``Q(D)`` under ``ranking`` (Lemma 4.1).

    Parameters
    ----------
    tree:
        Optionally, an already materialized tree for (query, db) — shared
        with counting through a :class:`~repro.joins.tree_cache.TreeCache`.

    Raises
    ------
    EmptyResultError
        If the query has no answers.
    CyclicQueryError
        If the query is cyclic.
    """
    if tree is None:
        tree = MaterializedTree(query, db, rooted=rooted)
    counts = subtree_counts(tree)
    total = sum(counts[tree.root])
    if total == 0:
        raise EmptyResultError("cannot select a pivot: the query has no answers")
    kernel = active_backend()
    identity = ranking.identity

    # Columns parallel to a node's rows describe each row's pivot partial
    # answer (rows with count 0 can never be selected and hold don't-cares):
    # variable_weights[node][x] the weight of its value of ranked variable x,
    # weights[node] its weight, chosen[node, child] the child row whose pivot
    # it contains (len(child rows): none, a dead join group).
    variable_weights: dict[int, dict[str, list[Weight]]] = {}
    weights: dict[int, list[Weight]] = {}
    chosen: dict[tuple[int, int], list[int]] = {}
    c_value: dict[int, float] = {}

    for node in tree.nodes_bottom_up():
        rows = tree.rows(node)
        checkpoint("pivot.node", rows=len(rows))
        columns = {
            variable: [
                ranking.variable_weight(variable, value)
                for value in tree.node_column(node, position)
            ]
            for position, variable in enumerate(tree.variables(node))
            if variable in ranking.weighted_variables
        }
        node_c = 1.0
        for child in tree.children(node):
            node_c *= c_value[child] / 2.0
            # Weighted median per join group (Lemma 4.5), all groups at once,
            # gathered through each row's group ordinal.
            medians = segmented_weighted_median(
                tree.child_group_ids(node, child),
                weights[child],
                counts[child],
                tree.num_child_groups(node, child),
            )
            medians.append(len(counts[child]))  # sentinel: parent key with no child group
            picked = kernel.take(medians, tree.parent_group_ids(node, child))
            chosen[node, child] = picked
            # Union with the child's pivot (Lemma 4.6): its values win, as in
            # dict.update, and the last child holding a variable wins.
            for variable, column in variable_weights[child].items():
                columns[variable] = kernel.take(column + [identity], picked)
        # Fold exactly as weight_of does — from the identity, in ranking
        # order — so that float weights do not reassociate.
        weight = [identity] * len(rows)
        for variable in ranking.weighted_variables:
            if variable in columns:
                weight = list(map(ranking.combine, weight, columns[variable]))
        variable_weights[node] = columns
        weights[node] = weight
        c_value[node] = node_c

    # Artificial root: take the weighted median of the root-row pivots.
    root = tree.root
    final_row = weighted_median(
        range(len(counts[root])), counts[root], key=weights[root].__getitem__
    )
    # The one assignment built: the chosen rows top-down, a node before its
    # children and children in order — the key order and value objects of
    # dict(row) followed by update(child pivot) per child.
    final: Assignment = {}
    stack = [(root, final_row)]
    # repro-analysis: allow RPR001 -- one step per join-tree node
    while stack:
        node, index = stack.pop()
        final.update(tree.assignment(node, tree.rows(node)[index]))
        stack.extend(
            (child, chosen[node, child][index]) for child in reversed(tree.children(node))
        )
    return PivotResult(
        assignment=final,
        weight=ranking.weight_of(final),
        c=c_value[root] / 2.0,
        total_answers=total,
    )
