"""Shard planning: hash-partition an acyclic join into K disjoint sub-databases.

The φ-quantile pipeline (reduce → count → pivot) is embarrassingly
partitionable by join-key hash: pick the largest relation (the *anchor*),
pick the anchor variable ``x`` shared with the most other atoms (the
*partition variable*), and split the database into K shards so that

* every atom containing ``x`` is hash-partitioned on ``x`` — a row with
  ``x = v`` lives exactly in shard ``h(v) mod K``;
* every other atom is *broadcast* — replicated to every shard.

Because every answer binds ``x`` to exactly one value, the K shard answer
sets are **disjoint** and their union is exactly ``Q(D)``: per-shard answer
counts are additive, the multiset of answer weights is partition-invariant,
and a quantile over the sharded counts is a short cumulative-count merge
(:mod:`repro.parallel.merger`).

The hash is a *stable* hash — ``zlib.crc32`` for strings — never Python's
``hash()``, whose string hashing is randomized per process: shard contents
must be reproducible across runs and identical between the coordinator and
any re-planning.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.data.database import Database
from repro.exceptions import ValidationError
from repro.kernels import active_backend
from repro.query.join_query import JoinQuery
from repro.runtime import checkpoint

#: ``(schema, per-column value lists)`` — the pickled-once payload of one
#: relation shard (flat columns, no per-row tuples).
ShardColumns = tuple[tuple[str, ...], list[list[Any]]]


def resolve_shard_count(parallel: int | None) -> int:
    """Normalize the ``parallel`` knob to a shard count: ``None`` → 0
    (serial), a positive int as-is, anything else
    :class:`~repro.exceptions.ValidationError`."""
    if parallel is None:
        return 0
    if isinstance(parallel, bool) or not isinstance(parallel, int) or parallel < 1:
        raise ValidationError(f"parallel must be a positive integer, got {parallel!r}")
    return parallel


def stable_shard_hash(value: Any) -> int:
    """A deterministic, process-independent hash for shard assignment.

    Integers map to themselves; strings and bytes go through ``crc32``;
    everything else is hashed via its ``repr``.  ``PYTHONHASHSEED`` must not
    influence shard contents — tests pin rows to shards by value.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return zlib.crc32(repr(value).encode("utf-8"))


@dataclass
class ShardPlan:
    """The output of :class:`ShardPlanner`: K self-contained sub-databases.

    Attributes
    ----------
    num_shards:
        K.
    anchor:
        Canonical relation name of the anchor atom (the largest relation).
    partition_variable:
        The anchor variable rows are hashed on.
    hashed, broadcast:
        Canonical relation names by placement mode.
    atoms:
        ``(relation name, variables)`` per canonical atom — enough for a
        worker to rebuild the canonical query without pickling query objects.
    shard_relations:
        Per shard: ``{relation name: (schema, column lists)}``.
    shard_rows:
        Input rows shipped to each shard (broadcast rows count in each).
    """

    num_shards: int
    anchor: str
    partition_variable: str
    hashed: tuple[str, ...]
    broadcast: tuple[str, ...]
    atoms: tuple[tuple[str, tuple[str, ...]], ...]
    shard_relations: list[dict[str, ShardColumns]] = field(repr=False)
    shard_rows: list[int] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        """Input rows across all shards (counts broadcast replication)."""
        return sum(self.shard_rows)


class ShardPlanner:
    """Plan a hash partition of a canonical (query, database) pair.

    Parameters
    ----------
    num_shards:
        K ≥ 1.  K = 1 degenerates to a single shard holding everything.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards

    # ------------------------------------------------------------------ #
    def plan(self, query: JoinQuery, db: Database) -> ShardPlan:
        """Partition a *canonical* (query, database) pair into K shards.

        Canonical means one relation per atom
        (:func:`repro.query.rewrite.ensure_canonical`), so placement is
        per-atom and self-joins cannot alias a relation across modes.
        """
        checkpoint("parallel.plan", rows=db.size)
        atoms = list(query.atoms)
        anchor_index = max(
            range(len(atoms)), key=lambda i: (len(db[atoms[i].relation]), -i)
        )
        partition_variable = self._partition_variable(query, anchor_index)
        # Per atom: list of per-shard row positions, or None for broadcast.
        assignments: list[list[list[int]] | None] = []
        for atom in atoms:
            relation = db[atom.relation]
            checkpoint("parallel.plan", rows=len(relation))
            assignments.append(
                self._hash_assign(relation.column(partition_variable), self.num_shards)
                if partition_variable in atom.variable_set
                else None
            )
        return self._build_plan(atoms, db, anchor_index, partition_variable, assignments)

    # ------------------------------------------------------------------ #
    def _partition_variable(self, query: JoinQuery, anchor_index: int) -> str:
        """The anchor variable shared with the most other atoms (ties break
        to the lexicographically smallest variable, deterministically)."""
        atoms = list(query.atoms)
        anchor_vars = sorted(atoms[anchor_index].variable_set)

        def share_count(variable: str) -> int:
            return sum(
                1
                for i, atom in enumerate(atoms)
                if i != anchor_index and variable in atom.variable_set
            )

        # max() returns the first maximal element, and anchor_vars is sorted,
        # so ties break to the lexicographically smallest variable.
        return max(anchor_vars, key=share_count)

    @staticmethod
    def _hash_assign(column: list[Any], num_shards: int) -> list[list[int]]:
        per_shard: list[list[int]] = [[] for _ in range(num_shards)]
        # repro-analysis: allow RPR001 -- one uninterruptible linear pass; plan() checkpoints per relation
        for i, value in enumerate(column):
            per_shard[stable_shard_hash(value) % num_shards].append(i)
        return per_shard

    def _build_plan(
        self,
        atoms: list[Any],
        db: Database,
        anchor_index: int,
        partition_variable: str,
        assignments: list[list[list[int]] | None],
    ) -> ShardPlan:
        backend = active_backend()
        K = self.num_shards
        shard_relations: list[dict[str, ShardColumns]] = [{} for _ in range(K)]
        shard_rows = [0] * K
        hashed: list[str] = []
        broadcast: list[str] = []
        for node, atom in enumerate(atoms):
            relation = db[atom.relation]
            schema = relation.schema
            assignment = assignments[node]
            checkpoint("parallel.plan", rows=len(relation))
            if assignment is None:
                broadcast.append(atom.relation)
                columns = [relation.column(a) for a in schema]
                for s in range(K):
                    shard_relations[s][atom.relation] = (schema, columns)
                    shard_rows[s] += len(relation)
                continue
            hashed.append(atom.relation)
            full_columns = [relation.column(a) for a in schema]
            for s in range(K):
                positions = assignment[s]
                columns = [backend.take(column, positions) for column in full_columns]
                shard_relations[s][atom.relation] = (schema, columns)
                shard_rows[s] += len(positions)
        return ShardPlan(
            num_shards=K,
            anchor=atoms[anchor_index].relation,
            partition_variable=partition_variable,
            hashed=tuple(hashed),
            broadcast=tuple(broadcast),
            atoms=tuple((atom.relation, atom.variables) for atom in atoms),
            shard_relations=shard_relations,
            shard_rows=shard_rows,
        )


__all__ = [
    "ShardColumns",
    "ShardPlan",
    "ShardPlanner",
    "resolve_shard_count",
    "stable_shard_hash",
]
