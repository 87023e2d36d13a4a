"""Classification of quantile join queries (the dichotomy of Theorem 5.6).

For a SUM ranking over weighted variables ``U_w``, Theorem 5.6 states that a
self-join-free JQ is tractable (quasilinear %JQ) exactly when

* the query hypergraph is acyclic,
* every independent subset of ``U_w`` has size at most 2, and
* every chordless path between two ``U_w`` variables has at most 3 edges.

Lemma D.1 shows these conditions are equivalent to the existence of a join
tree in which ``U_w`` is covered by one node or two *adjacent* nodes — which
is exactly what exact SUM's counting over the cover pair needs.  This module
implements both views: the structural test and the constructive search for the
adjacent cover (via the forced-edge maximum-spanning-tree construction of
:mod:`repro.query.join_tree`).

MIN/MAX and LEX rankings are tractable for every acyclic JQ (Theorem 5.3,
Section 5.2), so their classification only checks acyclicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from repro.query.join_query import JoinQuery
from repro.query.join_tree import JoinTree, build_join_tree, build_join_tree_with_adjacent


class Tractability(str, Enum):
    """Outcome of classifying a (query, ranking) pair."""

    TRACTABLE = "tractable"
    INTRACTABLE_CYCLIC = "intractable-cyclic"
    INTRACTABLE_3SUM = "intractable-3sum"
    INTRACTABLE_HYPERCLIQUE = "intractable-hyperclique"


@dataclass(frozen=True)
class SumClassification:
    """Result of the Theorem 5.6 dichotomy test for a SUM ranking.

    Attributes
    ----------
    tractability:
        Which side of the dichotomy the query falls on, with the hypothesis
        (3SUM / Hyperclique) that the hardness is conditioned on.
    reason:
        Human-readable explanation of the decision.
    adjacent_cover:
        For tractable queries, a pair ``(join_tree, nodes)`` where ``nodes``
        is a tuple of one or two atom indices covering ``U_w`` and adjacent in
        ``join_tree``; ``None`` for intractable queries.
    """

    tractability: Tractability
    reason: str
    adjacent_cover: tuple[JoinTree, tuple[int, ...]] | None = None

    @property
    def is_tractable(self) -> bool:
        return self.tractability is Tractability.TRACTABLE


def find_adjacent_cover(
    query: JoinQuery, weighted_variables: frozenset[str] | set[str]
) -> tuple[JoinTree, tuple[int, ...]] | None:
    """Find a join tree where ``weighted_variables`` live on ≤ 2 adjacent nodes.

    Returns ``(join_tree, (i,))`` when a single atom ``i`` covers all weighted
    variables, ``(join_tree, (i, j))`` when two atoms that can be made
    adjacent cover them, and ``None`` when no such join tree exists (or the
    query is cyclic, in which case :class:`~repro.exceptions.CyclicQueryError`
    propagates from join-tree construction).
    """
    weighted = frozenset(weighted_variables) & query.variables
    # Single-atom cover: any join tree will do.
    for index, atom in enumerate(query.atoms):
        if weighted <= atom.variable_set:
            return build_join_tree(query), (index,)
    # Two-atom cover with a join tree making them adjacent.
    for first, second in combinations(range(len(query)), 2):
        union = query[first].variable_set | query[second].variable_set
        if not weighted <= union:
            continue
        tree = build_join_tree_with_adjacent(query, first, second)
        if tree is not None:
            return tree, (first, second)
    return None


def classify_sum(
    query: JoinQuery, weighted_variables: frozenset[str] | set[str]
) -> SumClassification:
    """Apply the Theorem 5.6 dichotomy to a (query, SUM ranking) pair.

    The positive side is decided constructively (an adjacent cover is
    produced); the structural conditions are evaluated as well so the reason
    string can name the violated condition on the negative side.
    """
    weighted = frozenset(weighted_variables) & query.variables
    hypergraph = query.hypergraph()
    if not hypergraph.is_acyclic:
        return SumClassification(
            Tractability.INTRACTABLE_CYCLIC,
            "the query hypergraph is cyclic; even deciding non-emptiness is "
            "conditionally not quasilinear (Hyperclique hypothesis)",
        )
    independent = hypergraph.max_independent_subset_size(weighted, limit=3)
    if independent >= 3:
        return SumClassification(
            Tractability.INTRACTABLE_3SUM,
            "three weighted variables are pairwise non-co-occurring "
            "(independent set of size 3); hard under the 3SUM hypothesis",
        )
    if hypergraph.has_long_chordless_path(weighted, min_length=4):
        return SumClassification(
            Tractability.INTRACTABLE_HYPERCLIQUE,
            "two weighted variables are linked by a chordless path of length "
            ">= 4; hard under the Hyperclique hypothesis",
        )
    cover = find_adjacent_cover(query, weighted)
    if cover is None:
        # Should not happen for queries satisfying the structural conditions
        # (Lemma D.1); be conservative and report hardness rather than crash.
        return SumClassification(
            Tractability.INTRACTABLE_HYPERCLIQUE,
            "no join tree places the weighted variables on at most two "
            "adjacent nodes (unexpected for the given structural conditions)",
        )
    nodes = ", ".join(str(query[i]) for i in cover[1])
    return SumClassification(
        Tractability.TRACTABLE,
        f"weighted variables are covered by adjacent join-tree node(s): {nodes}",
        adjacent_cover=cover,
    )


def classify_always_tractable(query: JoinQuery) -> SumClassification:
    """Classification for MIN/MAX/LEX rankings: tractable iff acyclic."""
    if not query.hypergraph().is_acyclic:
        return SumClassification(
            Tractability.INTRACTABLE_CYCLIC,
            "the query hypergraph is cyclic; even deciding non-emptiness is "
            "conditionally not quasilinear (Hyperclique hypothesis)",
        )
    return SumClassification(
        Tractability.TRACTABLE,
        "MIN/MAX/LEX rankings admit linear-time trimming for every acyclic JQ "
        "(Theorem 5.3, Section 5.2)",
        adjacent_cover=(build_join_tree(query), ()),
    )
