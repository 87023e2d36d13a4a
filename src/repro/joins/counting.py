"""Linear-time counting of the answers to an acyclic join query.

This is the message-passing instantiation of Example 2.1: every tuple starts
with count 1, join groups aggregate with ``+`` (the ⊕ operator), and a tuple
multiplies the group counts received from its children (the ⊗ operator).  A
tuple whose join group in some child is empty is *dangling* and gets count 0,
so no separate semi-join pass is needed.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.joins.message_passing import MaterializedTree
from repro.kernels import active_backend
from repro.query.join_query import JoinQuery
from repro.runtime import checkpoint


def subtree_counts(tree: MaterializedTree) -> dict[int, list[int]]:
    """Per-tuple counts of partial answers rooted at each tuple.

    Returns a mapping from node (atom index) to a list parallel to the node's
    rows, where entry ``i`` is the number of partial query answers for the
    subtree rooted at row ``i`` (``cnt(t)`` in Example 2.1).

    Each node's counts are kept in its subtree state and each edge's
    :func:`group_sums` in the child's (callers treat them as read-only):
    counting and pivot selection over one tree, and trees whose databases
    share a subtree's relations, pay for that subtree and its edge up once.
    """
    kernel = active_backend()
    counts: dict[int, list[int]] = {}
    for node in tree.nodes_bottom_up():
        state = tree.subtree(node)
        node_counts = state.counts
        if node_counts is None:
            rows = tree.rows(node)
            checkpoint("counting.node", rows=len(rows))
            node_counts = [1] * len(rows)
            for child in tree.children(node):
                # Whole-column form of the ⊕/⊗ message pass: per-group sums of
                # the child counts, gathered through each parent row's group
                # ordinal (the sentinel slot holds 0 = dangling), multiplied in.
                sums = group_sums(tree, node, child, counts[child])
                gathered = kernel.take(sums, tree.parent_group_ids(node, child))
                node_counts = kernel.multiply(node_counts, gathered)
            state.counts = node_counts
        counts[node] = node_counts
    return counts


def group_sums(tree: MaterializedTree, parent: int, child: int, counts: list[int]) -> list[int]:
    """Per join group of the edge the answers below it (its members' child
    ``counts`` summed), then 0 for a parent key with no child group."""

    def build() -> list[int]:
        ids, size = tree.child_group_ids(parent, child), tree.num_child_groups(parent, child)
        sums = active_backend().sum_by_group(ids, counts, size)
        sums.append(0)
        return sums

    return tree.group_message(parent, child, "sums", build)


def count_from_tree(tree: MaterializedTree) -> int:
    """Total number of query answers, given a materialized tree."""
    counts = subtree_counts(tree)
    return sum(counts[tree.root])


def count_answers(
    query: JoinQuery, db: Database, tree: MaterializedTree | None = None
) -> int:
    """Count ``|Q(D)|`` for an acyclic query in time linear in the database.

    Parameters
    ----------
    tree:
        Optionally, an already materialized tree for (query, db) — typically
        obtained from a :class:`~repro.joins.tree_cache.TreeCache` — so the
        per-atom materialization and join-group hashing are not repeated.

    Raises
    ------
    CyclicQueryError
        If the query is cyclic (no join tree exists).

    Examples
    --------
    The running example of Figure 1 has 13 answers:

    >>> from repro.data import Database, Relation
    >>> from repro.query import Atom, JoinQuery
    >>> db = Database([
    ...     Relation("R", ("x1", "x2"), [(1, 1), (2, 2)]),
    ...     Relation("S", ("x1", "x3"), [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]),
    ...     Relation("T", ("x2", "x4"), [(1, 6), (1, 7), (2, 6)]),
    ...     Relation("U", ("x4", "x5"), [(6, 8), (6, 9), (7, 9)]),
    ... ])
    >>> q = JoinQuery([Atom("R", ("x1", "x2")), Atom("S", ("x1", "x3")),
    ...                Atom("T", ("x2", "x4")), Atom("U", ("x4", "x5"))])
    >>> count_answers(q, db)
    13
    """
    if tree is None:
        tree = MaterializedTree(query, db)
    return count_from_tree(tree)
