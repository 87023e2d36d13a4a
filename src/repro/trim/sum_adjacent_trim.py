"""Exact trimming of additive inequalities for (partial) SUM rankings.

This implements the positive side of the Theorem 5.6 dichotomy: when the
weighted variables ``U_w`` can be covered by one join-tree node or by two
*adjacent* join-tree nodes (Lemma D.1), an additive inequality
``Σ w_x(x) < λ`` can be trimmed in O(n log n) while keeping the query acyclic
and inside the same class (Lemma 5.5, after Tziavelis et al., PVLDB 2021).

Construction for the two-node case, nodes ``R`` (copied side) and ``S``
(grouped side):

1. Assign every weighted variable to ``R`` or ``S`` (the μ mapping), giving
   per-tuple partial weights ``w_R`` and ``w_S``.
2. Group ``S`` by the join variables shared with ``R`` and sort each group by
   ``w_S``.
3. A fresh variable ``v`` is added to both atoms.  Every ``S``-tuple receives
   one copy per *ancestor segment* of its position in the sorted group; every
   ``R``-tuple receives one copy per segment of the canonical decomposition of
   its admissible range (the positions whose ``w_S`` keeps the total inside
   the allowed interval — a contiguous range because the group is sorted).
4. Because the decomposition covers every admissible position exactly once,
   each original satisfying answer corresponds to exactly one new answer:
   dropping ``v`` is the required bijection.

Only ``R``'s copies depend on the trimmed interval.  The ``S`` side is the
same for every interval, so it is built once and every trim hands back that
one relation object; relations outside the cover are the base's own.

The single-node case degenerates to filtering that node's relation by the
tuple's partial sum.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any

from repro.kernels import active_backend

from repro.data.columns import ColumnStore
from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import TrimmingError
from repro.query.atom import Atom
from repro.query.classify import find_adjacent_cover
from repro.query.join_query import JoinQuery
from repro.query.predicates import RankPredicate, WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.sum import SumRanking
from repro.ranking.tuple_weights import owned_variables, row_weight, variable_to_atom_assignment
from repro.runtime import checkpoint
from repro.trim.base import TrimResult, Trimmer, fresh_variable
from repro.trim.segment_tree import ancestor_segments, range_segments


class SumAdjacentTrimmer(Trimmer):
    """Exact trimmer for SUM rankings whose variables fit two adjacent nodes."""

    def __init__(self, ranking: SumRanking) -> None:
        if not isinstance(ranking, SumRanking):
            raise TrimmingError(
                f"SumAdjacentTrimmer requires a SUM ranking, got {ranking.describe()}"
            )
        super().__init__(ranking)

    # ------------------------------------------------------------------ #
    def supports(self, query: JoinQuery) -> bool:
        weighted = frozenset(self.ranking.weighted_variables) & query.variables
        return find_adjacent_cover(query, weighted) is not None

    def trim(
        self, query: JoinQuery, db: Database, predicate: RankPredicate
    ) -> TrimResult:
        if predicate.comparison.is_upper_bound:
            interval = WeightInterval(
                low=None,
                high=predicate.threshold,
                high_strict=predicate.comparison.is_strict,
            )
        else:
            interval = WeightInterval(
                low=predicate.threshold,
                high=None,
                low_strict=predicate.comparison.is_strict,
            )
        return self.trim_interval(query, db, interval)

    def trim_interval(
        self, query: JoinQuery, db: Database, interval: WeightInterval
    ) -> TrimResult:
        """Single-pass trimming of a two-sided interval.

        Overridden (rather than composing two single-predicate trims) because
        the admissible positions for an interval are still one contiguous
        range per group, so one segment construction suffices.
        """
        query, db = ensure_canonical(query, db)
        weighted = frozenset(self.ranking.weighted_variables) & query.variables
        if not weighted:
            raise TrimmingError("none of the SUM variables occur in the query")
        cover = find_adjacent_cover(query, weighted)
        if cover is None:
            raise TrimmingError(
                "the SUM variables cannot be covered by two adjacent join-tree "
                "nodes; exact trimming is conditionally intractable (Theorem 5.6)"
            )
        _, nodes = cover
        if interval.is_unbounded:
            return TrimResult(query, db)
        if len(nodes) == 1:
            return self._trim_single_node(query, db, weighted, nodes[0], interval)
        return self._trim_adjacent_pair(query, db, weighted, nodes, interval)

    # ------------------------------------------------------------------ #
    def _trim_single_node(
        self,
        query: JoinQuery,
        db: Database,
        weighted: frozenset[str],
        node: int,
        interval: WeightInterval,
    ) -> TrimResult:
        """All weighted variables in one atom: filter that atom's relation.

        The per-row partial weights are memoized in the relation's index
        catalog, so repeated trims of the same base relation (one per pivot
        iteration and φ value) only pay the threshold comparison.
        """
        atom = query[node]
        relation = db[atom.relation]
        mu = variable_to_atom_assignment(query, weighted, preferred_atoms=[node])
        owned = owned_variables(mu, node)
        # The ranking object itself is part of the tag (identity hash): it
        # both distinguishes rankings and keeps the object alive inside the
        # catalog, so a recycled id can never alias another ranking's memos.
        tag = ("sum_weights", self.ranking, atom.variables, tuple(sorted(owned)))
        key = lambda row: row_weight(self.ranking, atom.variables, row, owned)  # noqa: E731
        weights = relation.indexes.weight_values(tag, key)
        order = relation.indexes.weight_order(tag, key)
        checkpoint("trim.sum_filter", rows=len(weights))
        # The admissible weights form one contiguous range of the sorted
        # order, located by two binary searches instead of an O(n) predicate
        # scan; the strict/non-strict bounds map to the bisection side.
        kernel = active_backend()
        sorted_weights = kernel.take(weights, order)
        if interval.low is None:
            start = 0
        else:
            low_side = "right" if interval.low_strict else "left"
            start = kernel.searchsorted(sorted_weights, [interval.low], low_side)[0]
        if interval.high is None:
            stop = len(sorted_weights)
        else:
            high_side = "left" if interval.high_strict else "right"
            stop = kernel.searchsorted(sorted_weights, [interval.high], high_side)[0]
        positions = order[start:stop]
        positions.sort()  # restore row order for the surviving view
        return TrimResult(query, _replacing(db, relation.select_rows(positions)))

    def _trim_adjacent_pair(
        self,
        query: JoinQuery,
        db: Database,
        weighted: frozenset[str],
        nodes: tuple[int, ...],
        interval: WeightInterval,
    ) -> TrimResult:
        copy_side, group_side = nodes
        copy_atom = query[copy_side]
        group_atom = query[group_side]
        mu = variable_to_atom_assignment(
            query, weighted, preferred_atoms=[copy_side, group_side]
        )
        copy_owned = owned_variables(mu, copy_side)
        group_owned = owned_variables(mu, group_side)
        join_vars = sorted(copy_atom.variable_set & group_atom.variable_set)

        group_relation = db[group_atom.relation]
        copy_relation = db[copy_atom.relation]
        segment_variable = fresh_variable(query, "__trim_v")

        # --- Group side: sort each join group by its partial weight. ------ #
        # The whole group-side construction (grouping, per-group weight sort,
        # ancestor-segment copies) is independent of the trimmed interval, so
        # it is memoized in the group relation's index catalog: every pivot
        # iteration and φ value after the first reuses it.
        ranking = self.ranking
        # Tags embed the ranking object (identity hash), not its id: the
        # catalog's memo table then keeps the ranking alive, so ids cannot be
        # recycled into stale cache hits for a different ranking.
        group_tag = (
            ranking,
            group_atom.variables,
            tuple(sorted(group_owned)),
            tuple(join_vars),
        )

        def group_weight(row: tuple[Any, ...]) -> float:
            return row_weight(ranking, group_atom.variables, row, group_owned)

        def build_group_side() -> tuple[
            dict[tuple[Any, ...], tuple[list[float], list[tuple[Any, ...]]]],
            dict[tuple[Any, ...], int],
            Relation,
        ]:
            catalog = group_relation.indexes
            groups = catalog.hash_index(tuple(join_vars))
            # Same tag for values and order: weight_order derives from the
            # memoized weight_values, so the weights are computed only once.
            weights_at = catalog.weight_values(("sum_weights",) + group_tag, group_weight)
            order = catalog.weight_order(("sum_weights",) + group_tag, group_weight)
            checkpoint("trim.sum_group", rows=len(group_relation))
            key_at: dict[int, tuple] = {}
            for key, indices in groups.items():
                for position in indices:
                    key_at[position] = key
            sorted_positions: dict[tuple, list[int]] = {key: [] for key in groups}
            for position in order:
                sorted_positions[key_at[position]].append(position)
            rows = group_relation.rows
            kernel = active_backend()
            sorted_groups = {
                key: (
                    kernel.take(weights_at, positions),
                    kernel.take(rows, positions),
                )
                for key, positions in sorted_positions.items()
            }
            group_index = {key: i for i, key in enumerate(sorted_groups)}
            segment_rows: list[tuple] = []
            for key, (weights, group_rows) in sorted_groups.items():
                length = len(group_rows)
                gid = group_index[key]
                for position, row in enumerate(group_rows):
                    for segment in ancestor_segments(length, position):
                        segment_rows.append(row + ((gid, segment),))
            return sorted_groups, group_index, Relation.from_store(
                group_relation.name,
                group_relation.schema + (segment_variable,),
                ColumnStore.from_rows(group_relation.arity + 1, segment_rows),
            )

        # The relation itself, not its rows: one object for every interval.
        sorted_groups, group_index, new_group_relation = group_relation.indexes.memo(
            ("sum_group_side", segment_variable) + group_tag, build_group_side
        )

        # --- Copy side: one copy per canonical segment of the admissible range. #
        copy_tag = (ranking, copy_atom.variables, tuple(sorted(copy_owned)))
        copy_weights = copy_relation.indexes.weight_values(
            ("sum_weights",) + copy_tag,
            lambda row: row_weight(ranking, copy_atom.variables, row, copy_owned),
        )
        low = -math.inf if interval.low is None else interval.low
        high = math.inf if interval.high is None else interval.high
        copy_positions = [copy_relation.position(v) for v in join_vars]
        checkpoint("trim.sum_copy", rows=len(copy_relation))
        new_copy_rows: list[tuple] = []
        for row_index, row in enumerate(copy_relation.rows):
            key = tuple(row[p] for p in copy_positions)
            if key not in sorted_groups:
                continue
            weights, rows = sorted_groups[key]
            length = len(rows)
            own_weight = copy_weights[row_index]
            # Admissible group weights w_S with low < own + w_S < high (bounds
            # possibly non-strict), i.e. w_S in (low - own, high - own).
            low_threshold = low - own_weight
            high_threshold = high - own_weight
            if interval.low is None:
                start = 0
            elif interval.low_strict:
                start = bisect_right(weights, low_threshold)
            else:
                start = bisect_left(weights, low_threshold)
            if interval.high is None:
                stop = length
            elif interval.high_strict:
                stop = bisect_left(weights, high_threshold)
            else:
                stop = bisect_right(weights, high_threshold)
            if start >= stop:
                continue
            gid = group_index[key]
            for segment in range_segments(length, start, stop):
                new_copy_rows.append(row + ((gid, segment),))

        # --- Assemble the new query and database. -------------------------- #
        new_atoms = []
        for index, atom in enumerate(query.atoms):
            if index in (copy_side, group_side):
                new_atoms.append(Atom(atom.relation, atom.variables + (segment_variable,)))
            else:
                new_atoms.append(atom)
        new_query = JoinQuery(new_atoms)
        new_copy_relation = Relation.from_store(
            copy_relation.name,
            copy_relation.schema + (segment_variable,),
            ColumnStore.from_rows(copy_relation.arity + 1, new_copy_rows),
        )
        return TrimResult(
            new_query,
            _replacing(db, new_copy_relation, new_group_relation),
            helper_variables={segment_variable},
        )


def _replacing(db: Database, *relations: Relation) -> Database:
    """``db`` with ``relations`` swapped in by name.  Every other relation is
    the base's own object: a trimmed database differs from the base, and from
    the other trims, only where the trim rewrote something."""
    swapped = {relation.name: relation for relation in relations}
    return Database(swapped.get(relation.name, relation) for relation in db)
