"""Hypergraphs of join queries: acyclicity (GYO), independence, chordless paths.

These are the structural notions of Section 2.1 that the dichotomy of
Theorem 5.6 is phrased in: independent sets of weighted variables and
chordless paths between weighted variables.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations


class Hypergraph:
    """A hypergraph ``H = (V, E)`` with vertex set ``V`` and hyperedges ``E``.

    Hyperedges are stored as a list (the index identifies the originating
    query atom); vertices not covered by any hyperedge are allowed.
    """

    __slots__ = ("vertices", "hyperedges")

    def __init__(self, vertices: Iterable[str], hyperedges: Iterable[frozenset[str]]) -> None:
        self.hyperedges: list[frozenset[str]] = [frozenset(e) for e in hyperedges]
        covered: set[str] = set()
        for edge in self.hyperedges:
            covered.update(edge)
        self.vertices: frozenset[str] = frozenset(vertices) | frozenset(covered)

    def __repr__(self) -> str:
        edges = ", ".join("{" + ",".join(sorted(e)) + "}" for e in self.hyperedges)
        return f"Hypergraph({len(self.vertices)} vertices, [{edges}])"

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    def adjacent(self, u: str, v: str) -> bool:
        """Whether two vertices co-occur in some hyperedge."""
        return any(u in edge and v in edge for edge in self.hyperedges)

    def neighbours(self, u: str) -> set[str]:
        """Vertices sharing a hyperedge with ``u`` (excluding ``u`` itself)."""
        out: set[str] = set()
        for edge in self.hyperedges:
            if u in edge:
                out.update(edge)
        out.discard(u)
        return out

    def is_independent(self, subset: Iterable[str]) -> bool:
        """Whether no two vertices of ``subset`` share a hyperedge."""
        vertices = list(subset)
        for edge in self.hyperedges:
            if len(edge.intersection(vertices)) > 1:
                return False
        return True

    def max_independent_subset_size(self, candidates: Iterable[str], limit: int = 4) -> int:
        """Size of the largest independent subset of ``candidates``.

        The search is exhaustive but capped at ``limit`` (queries are of
        constant size, and the dichotomy only needs to distinguish sizes
        up to 3).
        """
        candidate_list = sorted(set(candidates))
        best = 0
        for size in range(1, min(limit, len(candidate_list)) + 1):
            found = False
            for combo in combinations(candidate_list, size):
                if self.is_independent(combo):
                    found = True
                    break
            if found:
                best = size
            else:
                break
        return best

    # ------------------------------------------------------------------ #
    # Acyclicity via GYO reduction
    # ------------------------------------------------------------------ #
    @property
    def is_acyclic(self) -> bool:
        """Alpha-acyclicity via the GYO (Graham-Yu-Ozsoyoglu) reduction.

        Repeatedly (a) remove vertices that appear in at most one hyperedge
        ("ears' private vertices") and (b) remove hyperedges contained in
        another hyperedge.  The hypergraph is acyclic iff the reduction ends
        with no hyperedges (or a single empty one).
        """
        edges = [set(e) for e in self.hyperedges if e]
        changed = True
        while changed and edges:
            changed = False
            # Rule 1: remove vertices occurring in exactly one hyperedge.
            occurrence: dict[str, int] = {}
            for edge in edges:
                for vertex in edge:
                    occurrence[vertex] = occurrence.get(vertex, 0) + 1
            for edge in edges:
                lonely = {v for v in edge if occurrence[v] == 1}
                if lonely:
                    edge.difference_update(lonely)
                    changed = True
            # Rule 2: remove empty hyperedges and hyperedges contained in others.
            kept: list[set[str]] = []
            for i, edge in enumerate(edges):
                if not edge:
                    changed = True
                    continue
                absorbed = False
                for j, other in enumerate(edges):
                    if i == j:
                        continue
                    if edge < other or (edge == other and j < i):
                        absorbed = True
                        break
                if absorbed:
                    changed = True
                else:
                    kept.append(edge)
            edges = kept
        return not edges

    # ------------------------------------------------------------------ #
    # Chordless paths
    # ------------------------------------------------------------------ #
    def chordless_paths(self, source: str, target: str) -> Iterator[list[str]]:
        """Yield all chordless paths from ``source`` to ``target``.

        A path is chordless if no two non-consecutive vertices co-occur in a
        hyperedge (in particular it is a simple path).  Paths are returned as
        lists of vertices.
        """

        def extend(path: list[str]) -> Iterator[list[str]]:
            last = path[-1]
            if last == target:
                yield list(path)
                return
            for nxt in sorted(self.neighbours(last)):
                if nxt in path:
                    continue
                # Chordlessness: nxt must not be adjacent to any vertex of the
                # path other than the last one.
                if any(self.adjacent(nxt, earlier) for earlier in path[:-1]):
                    continue
                path.append(nxt)
                yield from extend(path)
                path.pop()

        if source == target:
            return
        yield from extend([source])

    def has_long_chordless_path(self, endpoints: Iterable[str], min_length: int = 4) -> bool:
        """Whether some pair of ``endpoints`` is linked by a chordless path
        with at least ``min_length`` *vertices*.

        The paper measures path length in variables: the conditionally hard
        pattern of Theorem 5.6 is a chordless path of 4 variables (3 atoms)
        between two weighted variables, hence the default ``min_length=4``.
        """
        points = sorted(set(endpoints))
        for source, target in combinations(points, 2):
            for path in self.chordless_paths(source, target):
                if len(path) >= min_length:
                    return True
        return False
