"""Materialized rooted join trees: the substrate for message passing.

The message-passing pattern of Section 2.4 traverses a rooted join tree
bottom-up, with every node holding a materialized relation whose tuples send
messages to the join group they belong to in the parent.  This module builds
that structure once so that counting (Example 2.1), pivot selection
(Section 4), and the sketch-based lossy trimming (Section 6) can all reuse it.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable, Hashable
from typing import Any, TypeVar

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import QueryError
from repro.kernels import active_backend
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.join_tree import RootedJoinTree, build_join_tree
from repro.ranking.base import RankingFunction, Weight
from repro.runtime import checkpoint

Row = tuple[Any, ...]
Assignment = dict[str, Any]
T = TypeVar("T")


class NodeState:
    """One atom over one relation: rows, columns, join groups.

    A function of ``(atom variables, relation)`` alone (a relation never
    changes once built), so every tree whose database holds the relation
    shares it.  The parts are
    computed on first use, whole, and stored by one assignment: a racing
    reader stores an equal value, an interrupted computation stores nothing.
    """

    def __init__(self, atom: Atom, relation: Relation) -> None:
        self.relation = relation  # held: its id is in this state's key
        self.variables, self.rows = _materialize_atom(atom, relation)
        self._columns: dict[int, list[Any]] = {}
        self._weights: dict[tuple[RankingFunction, int], list[Weight]] = {}
        self._group_weights: dict[Hashable, list[Weight] | None] = {}
        self._groups: dict[tuple[str, ...], dict[Row, list[int]]] = {}
        self._group_ids: dict[tuple[str, ...], list[int]] = {}

    def column(self, position: int) -> list[Any]:
        """One column of the rows; the relation's own cached column array
        (zero-copy) when the rows passed through from it unchanged."""
        cached = self._columns.get(position)
        if cached is None:
            if len(self.variables) == self.relation.arity:
                cached = self.relation.store.column(position)
            else:
                cached = [row[position] for row in self.rows]
            self._columns[position] = cached
        return cached

    def weight_column(self, ranking: RankingFunction, position: int) -> list[Weight]:
        """``ranking.variable_weight`` of one column's values (read-only)."""
        cached = self._weights.get((ranking, position))
        if cached is None:
            variable, weight = self.variables[position], ranking.variable_weight
            cached = [weight(variable, v) for v in self.column(position)]
            self._weights[ranking, position] = cached
        return cached

    def group_weights(
        self, ranking: RankingFunction, position: int, join_vars: tuple[str, ...]
    ) -> list[Weight] | None:
        """Per join group (in :meth:`groups` order) the one weight its rows
        carry in a column, or ``None`` when some group mixes weights: "one"
        is bit for bit (same ``repr``), and ``0 == 0.0 == -0.0`` share a group."""
        key = (ranking, position, join_vars)
        if key not in self._group_weights:
            checkpoint("tree.group_weights", rows=len(self.rows))
            weights = self.weight_column(ranking, position)
            groups = self.groups(join_vars).values()
            constant = all(len({repr(weights[i]) for i in rows}) == 1 for rows in groups)
            per_group = [weights[rows[0]] for rows in groups] if constant else None
            self._group_weights[key] = per_group
        return self._group_weights[key]

    def groups(self, join_vars: tuple[str, ...]) -> dict[Row, list[int]]:
        """The rows' join groups under ``join_vars``: {key: [row indices]}."""
        groups = self._groups.get(join_vars)
        if groups is None:
            checkpoint("tree.group", rows=len(self.rows))
            columns = [self.column(self.variables.index(v)) for v in join_vars]
            groups = active_backend().group_by_hash(columns, len(self.rows))
            self._groups[join_vars] = groups
        return groups

    def group_ids(self, join_vars: tuple[str, ...]) -> list[int]:
        """Dense ordinal of each row's group, in :meth:`groups` order."""
        gids = self._group_ids.get(join_vars)
        if gids is None:
            checkpoint("tree.group_ids", rows=len(self.rows))
            gids = [0] * len(self.rows)
            for ordinal, positions in enumerate(self.groups(join_vars).values()):
                for position in positions:
                    gids[position] = ordinal
            self._group_ids[join_vars] = gids
        return gids


class SubtreeState:
    """A node and everything below it: what the bottom-up passes leave there.

    The messages of Section 2.4 are functions of a subtree's relations alone,
    so trees over databases that share those relations share, under the key
    ``(node state, child subtree states)``: per child the group ordinal each
    parent row selects, the subtree counts (written by ``subtree_counts``),
    per ranking the pivot message (written by ``select_pivot``), and per
    parent's join variables what the join groups send up: count sums, live
    members and per ranking pivot medians (:meth:`MaterializedTree.group_message`).
    Filled in like a :class:`NodeState`.
    """

    def __init__(self) -> None:
        self.parent_group_ids: dict[SubtreeState, list[int]] = {}
        self.counts: list[int] | None = None
        self.pivots: dict[RankingFunction, Any] = {}
        self.sent: dict[Hashable, Any] = {}


class StateTable:
    """The states some live tree uses, by key.  Weak-valued: trees hold their
    states and the table only finds them, so a state (and what its key holds:
    a subtree's key holds its node and child states) lives exactly as long as
    a tree using it.  A :class:`~repro.joins.tree_cache.TreeCache` owns one
    for all its trees; a tree built without a cache gets a private one.
    """

    def __init__(self) -> None:
        self._states = weakref.WeakValueDictionary[Hashable, Any]()
        self._lock = threading.Lock()
        self.node_hits = 0
        self.node_misses = 0

    def get(self, key: Hashable, node: bool = False) -> Any:
        """The live state under ``key`` or None (``node``: count the lookup)."""
        with self._lock:
            state = self._states.get(key)
            if node and state is None:
                self.node_misses += 1
            elif node:
                self.node_hits += 1
        return state

    def publish(self, key: Hashable, state: Any) -> Any:
        """Install a state built off to the side; the first one published
        under a key is the one every caller gets."""
        with self._lock:
            return self._states.setdefault(key, state)


class MaterializedTree:
    """A rooted join tree with one materialized relation per node.

    For every node, the materialized relation has one column per *distinct*
    variable of the corresponding atom (tuples violating a repeated-variable
    constraint such as ``R(x, x)`` are dropped).  For every parent-child edge,
    the child's rows are grouped by the shared ("join") variables, exactly the
    *join groups* of Section 2.4.

    The tree itself is only the shape.  What it knows about a node is a
    :class:`NodeState` and what the bottom-up passes computed below one a
    :class:`SubtreeState`, both found through ``states``: trees over databases
    sharing relations (the trims of one pivoting run) share that part.

    Parameters
    ----------
    query, db:
        The acyclic join query and its database.
    rooted:
        Optionally, a pre-built rooted join tree (e.g. one where two specific
        atoms were forced to be adjacent); by default a join tree is built and
        rooted at atom 0.
    states:
        The table to share states through (a tree cache passes its own).
    """

    def __init__(
        self,
        query: JoinQuery,
        db: Database,
        rooted: RootedJoinTree | None = None,
        states: StateTable | None = None,
    ) -> None:
        self.query = query
        self.db = db
        self.rooted = rooted or build_join_tree(query).rooted()
        if self.rooted.query is not query:
            # Allow structurally identical queries (e.g. reconstructed ones).
            if self.rooted.query != query:
                raise QueryError("rooted join tree does not belong to the given query")
        table = StateTable() if states is None else states
        nodes: dict[int, NodeState] = {}
        for node in self.rooted.tree.nodes():
            atom = query[node]
            relation = db[atom.relation]
            key = (atom.variables, id(relation))
            state = table.get(key, node=True)
            if state is None:
                state = NodeState(atom, relation)
                checkpoint("tree.materialize", rows=len(state.rows))
                state = table.publish(key, state)
            nodes[node] = state
        self._nodes = nodes
        self._join_vars: dict[tuple[int, int], tuple[str, ...]] = {}
        # (parent, child) -> positions of the join variables in the parent's
        # schema, so per-row key extraction does no schema lookups.
        self._parent_positions: dict[tuple[int, int], list[int]] = {}
        for parent in self.rooted.top_down_order():
            parent_vars = nodes[parent].variables
            for child in self.rooted.children[parent]:
                join_vars = self.rooted.join_variables(parent, child)
                self._join_vars[(parent, child)] = join_vars
                self._parent_positions[(parent, child)] = [
                    parent_vars.index(v) for v in join_vars
                ]
                nodes[child].groups(join_vars)
        self._subtrees: dict[int, SubtreeState] = {}
        for node in self.rooted.bottom_up_order():
            key = (nodes[node], tuple(self._subtrees[c] for c in self.rooted.children[node]))
            self._subtrees[node] = table.get(key) or table.publish(key, SubtreeState())

    # ------------------------------------------------------------------ #
    # Structure accessors
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> int:
        """The root node (atom index)."""
        return self.rooted.root

    def nodes_bottom_up(self) -> list[int]:
        """Nodes in bottom-up (children before parents) order."""
        return self.rooted.bottom_up_order()

    def nodes_top_down(self) -> list[int]:
        """Nodes in top-down (parents before children) order."""
        return self.rooted.top_down_order()

    def children(self, node: int) -> list[int]:
        """Children of ``node`` in the rooted tree."""
        return self.rooted.children[node]

    def subtree(self, node: int) -> SubtreeState:
        """The (possibly shared) state of the subtree rooted at ``node``."""
        return self._subtrees[node]

    def variables(self, node: int) -> tuple[str, ...]:
        """Schema (distinct variables) of the node's materialized relation."""
        return self._nodes[node].variables

    def rows(self, node: int) -> list[Row]:
        """Materialized rows of the node."""
        return self._nodes[node].rows

    def join_variables(self, parent: int, child: int) -> tuple[str, ...]:
        """Variables shared by a parent/child pair."""
        return self._join_vars[(parent, child)]

    def child_groups(self, parent: int, child: int) -> dict[Row, list[int]]:
        """Join groups of the child relation, keyed by shared-variable values."""
        return self._nodes[child].groups(self._join_vars[(parent, child)])

    def node_column(self, node: int, position: int) -> list[Any]:
        """One column of a node's materialized rows (cached, read-only)."""
        return self._nodes[node].column(position)

    def weight_column(
        self, node: int, position: int, ranking: RankingFunction
    ) -> list[Weight]:
        """``ranking``'s variable weights of one node column (cached, read-only)."""
        return self._nodes[node].weight_column(ranking, position)

    def group_weights(
        self, parent: int, child: int, position: int, ranking: RankingFunction
    ) -> list[Weight] | None:
        """:meth:`NodeState.group_weights` of one child column (cached, read-only)."""
        join_vars = self._join_vars[(parent, child)]
        return self._nodes[child].group_weights(ranking, position, join_vars)

    def num_child_groups(self, parent: int, child: int) -> int:
        """Number of join groups on one parent-child edge."""
        return len(self.child_groups(parent, child))

    def child_group_ids(self, parent: int, child: int) -> list[int]:
        """Dense group ordinal per child row, parallel to the child's rows.

        Ordinals follow the first-occurrence order of
        :meth:`child_groups`; every child row belongs to exactly one group.
        """
        return self._nodes[child].group_ids(self._join_vars[(parent, child)])

    def parent_group_ids(self, parent: int, child: int) -> list[int]:
        """Per parent row, the ordinal of the child group its key selects.

        Parent rows whose key has no child group get the sentinel ordinal
        ``num_child_groups(parent, child)`` — callers append a neutral entry
        (0 count / dead flag) at that slot before gathering.
        """
        state, below = self._subtrees[parent], self._subtrees[child]
        gids = state.parent_group_ids.get(below)
        if gids is None:
            rows = self._nodes[parent].rows
            groups = self.child_groups(parent, child)
            ordinal_of = {key: i for i, key in enumerate(groups)}
            sentinel = len(groups)
            positions = self._parent_positions[(parent, child)]
            checkpoint("tree.parent_ids", rows=len(rows))
            if not positions:
                # Cartesian edge: every parent row selects the single () group
                # (or the sentinel when the child is empty).
                ordinal = ordinal_of.get((), sentinel)
                gids = [ordinal] * len(rows)
            elif len(positions) == 1:
                column = self.node_column(parent, positions[0])
                gids = [ordinal_of.get((value,), sentinel) for value in column]
            else:
                columns = [self.node_column(parent, p) for p in positions]
                gids = [ordinal_of.get(key, sentinel) for key in zip(*columns)]
            state.parent_group_ids[below] = gids
        return gids

    def group_message(self, parent: int, child: int, kind: Hashable, build: Callable[[], T]) -> T:
        """What the child's join groups send up the edge (per group, then the
        sentinel): ``build()``, kept on the child's subtree state under (join
        variables, ``kind``).  Only the :meth:`parent_group_ids` gather is per tree."""
        sent, key = self._subtrees[child].sent, (self._join_vars[(parent, child)], kind)
        message: T | None = sent.get(key)
        if message is None:
            message = sent[key] = build()
        return message

    # ------------------------------------------------------------------ #
    # Row helpers
    # ------------------------------------------------------------------ #
    def assignment(self, node: int, row: Row) -> Assignment:
        """The variable assignment represented by one row of a node."""
        return dict(zip(self.variables(node), row))

    def assignment_of(self, rows: dict[int, Row]) -> Assignment:
        """One answer from a row per node, read in top-down order as
        :func:`~repro.joins.yannakakis.evaluate` reads it: a variable several
        atoms hold takes its last occurrence's value (``0`` and ``0.0`` join,
        but a weight function may tell them apart)."""
        assignment: Assignment = {}
        for node in self.nodes_top_down():  # repro-analysis: allow RPR001 -- one pass over the atoms
            assignment.update(zip(self.variables(node), rows[node]))
        return assignment

    def parent_group_key(self, parent: int, row: Row, child: int) -> Row:
        """The join-group key a parent row selects in one of its children."""
        positions = self._parent_positions[(parent, child)]
        return tuple(row[p] for p in positions)

    def total_rows(self) -> int:
        """Total number of materialized rows across all nodes."""
        return sum(len(state.rows) for state in self._nodes.values())


def _materialize_atom(atom: Atom, relation: Relation) -> tuple[tuple[str, ...], list[Row]]:
    """Materialize one atom: distinct-variable schema and consistent rows (the
    relation's own, in order, when the atom repeats no variable)."""
    if relation.arity != atom.arity:
        raise QueryError(
            f"atom {atom} has arity {atom.arity} but relation {atom.relation!r} "
            f"has arity {relation.arity}"
        )
    distinct_vars: list[str] = []
    first_position: dict[str, int] = {}
    for position, variable in enumerate(atom.variables):
        if variable not in first_position:
            first_position[variable] = position
            distinct_vars.append(variable)
    rows: list[Row] = []
    checkpoint("tree.atom_scan", rows=len(relation))
    if len(distinct_vars) == len(atom.variables):
        return tuple(distinct_vars), list(relation.rows)
    for row in relation.rows:
        if all(
            row[pos] == row[first_position[var]]
            for pos, var in enumerate(atom.variables)
        ):
            rows.append(tuple(row[first_position[var]] for var in distinct_vars))
    return tuple(distinct_vars), rows
