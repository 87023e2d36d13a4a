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
from typing import Any, NamedTuple

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
        Messages and each edge's group medians are kept on the subtree states,
        so a tree new only at its root (a SUM trim) builds the root's alone.

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
    # A message is kept in its subtree's state for the trees that share the
    # subtree; no tree can share a root's, so that one dies with this call.
    messages: dict[int, _Message] = {}
    # repro-analysis: allow RPR001 -- one step per join-tree node; _message checkpoints
    for node in tree.nodes_bottom_up():
        pivots = tree.subtree(node).pivots
        message = pivots.get(ranking)
        if message is None:
            message = _message(tree, node, ranking, counts, messages)
            if node != tree.root:
                pivots[ranking] = message
        messages[node] = message

    # Artificial root: take the weighted median of the root-row pivots.
    root = tree.root
    final_row = weighted_median(
        range(len(counts[root])), counts[root], key=messages[root].weights.__getitem__
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
        edges = zip(tree.children(node), messages[node].chosen)
        stack.extend(reversed([(child, picked[index]) for child, picked in edges]))
    return PivotResult(
        assignment=final,
        weight=ranking.weight_of(final),
        c=messages[root].c / 2.0,
        total_answers=total,
    )


class _Message(NamedTuple):
    """A node's bottom-up message, columns parallel to its rows: each row's
    pivot partial answer (don't-cares where the count is 0).  Per ranked
    variable of the partial answer the weight of its value, the partial
    answer's weight, per child the child row whose pivot it contains
    (``len(child rows)``: none, a dead join group), and the node's c."""

    variable_weights: dict[str, list[Weight]]
    weights: list[Weight]
    chosen: list[list[int]]
    c: float


def _message(
    tree: MaterializedTree, node: int, ranking: RankingFunction,
    counts: dict[int, list[int]], messages: dict[int, _Message],
) -> _Message:
    """One node's message from its children's (Lemmas 4.5 and 4.6)."""
    kernel = active_backend()
    identity = ranking.identity
    rows = tree.rows(node)
    checkpoint("pivot.node", rows=len(rows))
    columns = {
        variable: tree.weight_column(node, position, ranking)
        for position, variable in enumerate(tree.variables(node))
        if variable in ranking.weighted_variables
    }
    chosen: list[list[int]] = []
    node_c = 1.0
    for child in tree.children(node):
        below = messages[child]
        node_c *= below.c / 2.0
        # Weighted median per join group (Lemma 4.5), gathered per row.
        medians = _group_medians(tree, node, child, ranking, below.weights, counts[child])
        picked = kernel.take(medians, tree.parent_group_ids(node, child))
        chosen.append(picked)
        # Union with the child's pivot (Lemma 4.6): its values win, as in
        # dict.update, and the last child holding a variable wins.
        for variable, column in below.variable_weights.items():
            columns[variable] = kernel.take(column + [identity], picked)
    # Fold exactly as weight_of does — from the identity, in ranking
    # order — so that float weights do not reassociate.
    weight = [identity] * len(rows)
    for variable in ranking.weighted_variables:
        if variable in columns:
            weight = list(map(ranking.combine, weight, columns[variable]))
    return _Message(columns, weight, chosen, node_c)


def _group_medians(
    tree: MaterializedTree, parent: int, child: int, ranking: RankingFunction,
    weights: list[Weight], counts: list[int],
) -> list[int]:
    """Per join group of the edge its weighted median child row under the child
    message's ``weights``, then ``len(counts)`` for a key with no child group."""

    def build() -> list[int]:
        ids, size = tree.child_group_ids(parent, child), tree.num_child_groups(parent, child)
        medians = segmented_weighted_median(ids, weights, counts, size)
        medians.append(len(counts))
        return medians

    return tree.group_message(parent, child, ("medians", ranking), build)
