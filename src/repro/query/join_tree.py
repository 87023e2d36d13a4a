"""Join trees for acyclic join queries.

A join tree (Section 2.1) is a tree whose nodes are the query atoms and in
which the *running intersection property* holds: for every variable, the atoms
containing it form a connected subtree.

Construction uses the classical characterization (Maier / Bernstein & Goodman):
for an acyclic hypergraph, a tree over the hyperedges is a join tree if and
only if it is a maximum-weight spanning tree of the *intersection graph*, whose
edge weights are ``|e_i ∩ e_j|``.  This also lets us force a chosen pair of
atoms to be adjacent (needed by the partial-SUM trimming, Lemma D.1): a join
tree with that edge exists iff forcing the edge does not decrease the maximum
spanning-tree weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import CyclicQueryError, QueryError
from repro.query.join_query import JoinQuery


@dataclass
class JoinTree:
    """An (undirected) join tree over the atoms of a query.

    Attributes
    ----------
    query:
        The query this tree belongs to.
    edges:
        Set of unordered pairs of atom indices.
    """

    query: JoinQuery
    edges: set[frozenset[int]] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    def nodes(self) -> list[int]:
        """All atom indices (tree nodes)."""
        return list(range(len(self.query)))

    def neighbours(self, node: int) -> list[int]:
        """Atom indices adjacent to ``node``."""
        out = []
        for edge in self.edges:
            if node in edge:
                (other,) = edge - {node}
                out.append(other)
        return sorted(out)

    def has_edge(self, a: int, b: int) -> bool:
        """Whether atoms ``a`` and ``b`` are adjacent."""
        return frozenset((a, b)) in self.edges

    def satisfies_running_intersection(self) -> bool:
        """Verify the running intersection property.

        For every variable, the set of atoms containing it must induce a
        connected subtree.
        """
        for variable in self.query.variables:
            holders = set(self.query.atoms_with_variable(variable))
            if len(holders) <= 1:
                continue
            start = next(iter(holders))
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nxt in self.neighbours(node):
                    if nxt in holders and nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            if seen != holders:
                return False
        return True

    def rooted(self, root: int | None = None) -> "RootedJoinTree":
        """Return a rooted view of this tree (default root: atom 0)."""
        return RootedJoinTree(self, root=0 if root is None else root)


class RootedJoinTree:
    """A join tree with a chosen root, exposing parent/children and traversal
    orders needed by the message-passing algorithms (Section 2.4)."""

    def __init__(self, tree: JoinTree, root: int = 0) -> None:
        self.tree = tree
        self.query = tree.query
        self.root = root
        self.parent: dict[int, int | None] = {root: None}
        self.children: dict[int, list[int]] = {i: [] for i in tree.nodes()}
        order: list[int] = []
        frontier = [root]
        seen = {root}
        while frontier:
            node = frontier.pop()
            order.append(node)
            for nxt in tree.neighbours(node):
                if nxt not in seen:
                    seen.add(nxt)
                    self.parent[nxt] = node
                    self.children[node].append(nxt)
                    frontier.append(nxt)
        if len(order) != len(tree.nodes()):
            raise QueryError(
                "join tree is disconnected; cannot root it "
                f"(reached {len(order)} of {len(tree.nodes())} nodes)"
            )
        self._top_down = order

    # ------------------------------------------------------------------ #
    def top_down_order(self) -> list[int]:
        """Nodes in an order where parents precede children."""
        return list(self._top_down)

    def bottom_up_order(self) -> list[int]:
        """Nodes in an order where children precede parents."""
        return list(reversed(self._top_down))

    def leaves(self) -> list[int]:
        """Nodes without children."""
        return [node for node, kids in self.children.items() if not kids]

    def depth(self, node: int) -> int:
        """Number of edges from ``node`` to the root."""
        count = 0
        current: int | None = node
        while self.parent[current] is not None:  # type: ignore[index]
            current = self.parent[current]  # type: ignore[index]
            count += 1
        return count

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self.depth(node) for node in self.tree.nodes())

    def subtree_nodes(self, node: int) -> list[int]:
        """All nodes of the subtree rooted at ``node`` (including it)."""
        out = [node]
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for child in self.children[current]:
                out.append(child)
                frontier.append(child)
        return out

    def join_variables(self, parent: int, child: int) -> tuple[str, ...]:
        """Variables shared between a parent node and a child node, in a
        deterministic order (sorted)."""
        shared = self.query[parent].variable_set & self.query[child].variable_set
        return tuple(sorted(shared))

    def max_children(self) -> int:
        """Maximum number of children over all nodes."""
        return max((len(kids) for kids in self.children.values()), default=0)


# ---------------------------------------------------------------------- #
# Construction
# ---------------------------------------------------------------------- #
def _maximum_spanning_forest(
    num_nodes: int,
    weights: dict[frozenset[int], int],
    forced: frozenset[int] | None = None,
) -> tuple[set[frozenset[int]], int]:
    """Kruskal maximum-weight spanning forest; ``forced`` edge included first.

    Returns the chosen edges and the total weight of *positive-weight* edges
    (zero-weight edges connect disjoint components and never affect the
    running-intersection check)."""
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[rx] = ry
        return True

    chosen: set[frozenset[int]] = set()
    total = 0
    candidates = sorted(weights, key=lambda e: (-weights[e], sorted(e)))
    if forced is not None:
        ordered = [forced] + [e for e in candidates if e != forced]
    else:
        ordered = candidates
    for edge in ordered:
        a, b = sorted(edge)
        if union(a, b):
            chosen.add(edge)
            total += weights[edge]
    # Connect remaining components with arbitrary (weight-0) edges so the
    # result is a tree even for Cartesian-product queries.
    for node in range(1, num_nodes):
        if find(node) != find(0):
            union(node, 0)
            chosen.add(frozenset((0, node)))
    return chosen, total


def _intersection_weights(query: JoinQuery) -> dict[frozenset[int], int]:
    weights: dict[frozenset[int], int] = {}
    for i in range(len(query)):
        for j in range(i + 1, len(query)):
            shared = query[i].variable_set & query[j].variable_set
            weights[frozenset((i, j))] = len(shared)
    return weights


def build_join_tree(query: JoinQuery, root: int | None = None) -> JoinTree:
    """Build a join tree for ``query``.

    Raises
    ------
    CyclicQueryError
        If the query hypergraph is cyclic (no join tree exists).
    """
    if len(query) == 1:
        tree = JoinTree(query, set())
        return tree
    weights = _intersection_weights(query)
    edges, _ = _maximum_spanning_forest(len(query), weights)
    tree = JoinTree(query, edges)
    if not tree.satisfies_running_intersection():
        raise CyclicQueryError(
            f"query {query!r} is cyclic: no join tree exists"
        )
    return tree


def build_join_tree_with_adjacent(
    query: JoinQuery, first: int, second: int
) -> JoinTree | None:
    """Build a join tree in which atoms ``first`` and ``second`` are adjacent.

    Returns ``None`` when no such join tree exists (the query may still be
    acyclic).  Uses the maximum-spanning-tree characterization: forcing the
    edge yields a join tree iff the forced spanning tree has the same weight
    as the unconstrained maximum and satisfies the running intersection
    property.
    """
    if first == second:
        raise QueryError("the two atoms to make adjacent must be distinct")
    weights = _intersection_weights(query)
    best_edges, best_weight = _maximum_spanning_forest(len(query), weights)
    forced_edge = frozenset((first, second))
    forced_edges, forced_weight = _maximum_spanning_forest(
        len(query), weights, forced=forced_edge
    )
    unforced_tree = JoinTree(query, best_edges)
    if not unforced_tree.satisfies_running_intersection():
        raise CyclicQueryError(f"query {query!r} is cyclic: no join tree exists")
    if forced_weight != best_weight:
        return None
    forced_tree = JoinTree(query, forced_edges)
    if not forced_tree.satisfies_running_intersection():
        return None
    return forced_tree
