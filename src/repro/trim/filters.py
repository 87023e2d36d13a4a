"""Shared helpers for trimming constructions built from bounds on variable weights.

Both the MIN/MAX trimming (Algorithm 3) and the LEX trimming (Lemma 5.4) work
by splitting the space of weighted-variable values into a constant number of
disjoint *partitions*, each a conjunction of bounds on single variables'
weights, filtering the database per partition, and unioning the filtered
copies with a fresh partition-identifier variable added to every atom.

A partition is data: ``{variable: WeightInterval}`` over the weight
``weight(variable, value)`` (LEX "equals c" is ``[c, c]``).  The weights of a
relation's column never change between the trims of a pivoting run, so the
relation's :class:`~repro.data.indexes.IndexCatalog` holds, per variable, the
weight column, its stable argsort and the sorted weights; a bound is two
bisects into the sorted weights, the survivors are one contiguous run of the
order, and sorting the run gives their positions in row order.  No row is
looked at and no weight recomputed per trim.

Filtering produces masked views over the original relations (survivor
positions, no row copies); the union gathers each output column once through
the concatenated positions of its parts and adds one identifier column.
Either way the output inherits its weight columns — the base's, gathered
through the same positions — so pivot selection over a trimmed tree computes
no weight either.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping, Sequence

from repro.data.columns import ColumnStore
from repro.data.database import Database
from repro.data.indexes import VariableWeight
from repro.data.relation import Relation
from repro.kernels import active_backend
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.runtime import checkpoint
from repro.trim.base import TrimResult, fresh_variable

#: Bounds on ``weight(variable, value)``, where ``weight`` is the ranking's
#: bound method itself (``ranking.variable_weight``, ``LexRanking.key_of``) —
#: it is the memo tag of the per-variable weight order
#: (see :meth:`IndexCatalog.column_weights`).
PartitionCondition = Mapping[str, WeightInterval]


def _survivors(
    relation: Relation, conditions: PartitionCondition, weight: VariableWeight
) -> list[int] | None:
    """Ascending positions of the rows meeting every bound on the relation's
    variables; ``None`` when nothing bounds it (an unbounded interval is no
    bound)."""
    bounds = [
        (variable, bound)
        for variable, bound in conditions.items()
        if relation.has_attribute(variable) and not bound.is_unbounded
    ]
    if not bounds:
        return None
    runs = []
    for variable, bound in bounds:
        order, weights = relation.indexes.column_order(
            relation.position(variable), variable, weight
        )
        start, stop = 0, len(order)
        if bound.low is not None:
            start = (bisect_right if bound.low_strict else bisect_left)(weights, bound.low)
        if bound.high is not None:
            stop = (bisect_left if bound.high_strict else bisect_right)(weights, bound.high)
        runs.append(order[start:stop])
    # The pass scans the runs, not the relation.
    checkpoint("trim.filter", rows=sum(map(len, runs)))
    if len(runs) == 1:
        return sorted(runs[0])
    runs.sort(key=len)
    return sorted(set(runs[0]).intersection(*runs[1:]))


def _inherit_weights(
    derived: Relation,
    relation: Relation,
    positions: Sequence[int],
    variables: Iterable[str],
    weight: VariableWeight,
) -> Relation:
    """Seed ``derived`` (the rows of ``relation`` at ``positions``) with the
    weight columns of ``variables``, gathered from ``relation``'s.  Part of
    the pass that selected ``positions``, which charged the rows."""
    checkpoint("trim.inherit")
    kernel = active_backend()
    for variable in variables:
        if relation.has_attribute(variable):
            column = relation.position(variable)
            weights = relation.indexes.column_weights(column, variable, weight)
            derived.indexes.seed_column_weights(
                column, variable, weight, kernel.take(weights, positions)
            )
    return derived


def _filtered(
    relation: Relation, conditions: PartitionCondition, weight: VariableWeight
) -> Relation:
    """The relation itself when nothing bounds it, else a masked view of the
    rows meeting the bounds."""
    positions = _survivors(relation, conditions, weight)
    if positions is None:
        return relation
    view = relation.select_rows(positions)
    return _inherit_weights(view, relation, positions, conditions, weight)


def filter_variables(
    query: JoinQuery, db: Database, conditions: PartitionCondition, weight: VariableWeight
) -> tuple[JoinQuery, Database]:
    """Filter every atom's relation with bounds on its variables' weights.

    ``conditions`` maps variables to intervals of ``weight(variable, value)``;
    every atom containing a bounded variable has its relation replaced by a
    masked view keeping the satisfying rows, in row order, and every other
    relation is kept as it is.  The query is canonicalized first so each atom
    owns its relation.
    """
    query, db = ensure_canonical(query, db)
    return query, Database(
        _filtered(db[atom.relation], conditions, weight) for atom in query.atoms
    )


def union_partitions(
    query: JoinQuery,
    db: Database,
    partitions: Sequence[PartitionCondition],
    weight: VariableWeight,
    partition_base_name: str = "p",
) -> TrimResult:
    """Build the union-of-filtered-copies construction of Algorithm 3.

    For each partition ``i`` every relation is cut to the rows meeting the
    partition's bounds; a fresh partition-identifier variable (with value
    ``i``) is appended to every relation and every atom, so answers from
    different partitions cannot mix.  An output relation is partition-major,
    row order inside a part.  The construction is linear in the database for
    a constant number of partitions and preserves acyclicity (the identifier
    can be added to every node of any join tree).
    """
    query, db = ensure_canonical(query, db)
    partition_variable = fresh_variable(query, f"__trim_{partition_base_name}")
    new_atoms = [
        Atom(atom.relation, atom.variables + (partition_variable,)) for atom in query.atoms
    ]
    new_query = JoinQuery(new_atoms)
    bounded = set().union(*partitions)
    kernel = active_backend()
    new_db = Database()
    for atom in query.atoms:
        relation = db[atom.relation]
        positions: list[int] = []
        identifiers: list[int] = []
        for index, conditions in enumerate(partitions):
            part = _survivors(relation, conditions, weight)
            if part is None:
                part = range(len(relation))
            positions.extend(part)
            identifiers.extend([index] * len(part))
        checkpoint("trim.union", rows=len(positions))
        store = relation.store
        columns = [kernel.take(store.column(p), positions) for p in range(relation.arity)]
        columns.append(identifiers)
        union = Relation.from_store(
            relation.name,
            relation.schema + (partition_variable,),
            ColumnStore.from_columns(columns, length=len(positions)),
        )
        new_db.add(_inherit_weights(union, relation, positions, bounded, weight))
    return TrimResult(
        query=new_query,
        database=new_db,
        helper_variables={partition_variable},
    )
