"""ε-lossy trimming of additive inequalities (Algorithm 4, Lemma 6.1).

Used when the SUM variables cannot be placed on two adjacent join-tree nodes
(the conditionally intractable side of Theorem 5.6).  The trimming embeds the
ε-sketched partial sums of the message-passing algorithm of Abo-Khamis et al.
into the database itself:

* every tuple carries an approximate partial sum ``σ_s`` and a multiplicity
  ``σ_m`` for its subtree;
* for every parent/child edge, each join group's child sums are sketched; the
  child tuples record their bucket in a fresh column, and each parent tuple is
  replaced by one copy per bucket (accumulating the bucket representative into
  its own ``σ_s``);
* finally, root tuples whose accumulated sum violates the inequality are
  dropped.

Every surviving new answer maps (by dropping the helper columns) to an
original answer that truly satisfies the inequality — the representative is an
over-estimate for ``< λ`` trims and an under-estimate for ``> λ`` trims — and
at most an ε fraction of the satisfying answers is lost (Definition 3.5).

Deviation from the paper: instead of materializing a
binary join tree, nodes with several children process them sequentially
(which is what the binary chain amounts to); and the per-trim sketch ε is a
configurable fraction of the requested ε rather than the very conservative
``ε / 4^height`` of the worst-case analysis (set ``budget="paper"`` to use the
conservative constants).
"""

from __future__ import annotations

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import TrimmingError
from repro.approx.sketch import epsilon_sketch
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery
from repro.query.join_tree import RootedJoinTree, build_join_tree
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.sum import SumRanking
from repro.ranking.tuple_weights import owned_variables, row_weight, variable_to_atom_assignment
from repro.runtime import checkpoint
from repro.trim.base import Trimmer, fresh_variable


class LossySumTrimmer(Trimmer):
    """ε-lossy trimmer for SUM over arbitrary acyclic join queries."""

    def __init__(
        self,
        ranking: SumRanking,
        epsilon: float,
        budget: str = "practical",
    ) -> None:
        if not isinstance(ranking, SumRanking):
            raise TrimmingError(
                f"LossySumTrimmer requires a SUM ranking, got {ranking.describe()}"
            )
        if not 0 < epsilon < 1:
            raise TrimmingError(f"epsilon must be in (0, 1), got {epsilon}")
        if budget not in ("practical", "paper"):
            raise TrimmingError(f"budget must be 'practical' or 'paper', got {budget!r}")
        super().__init__(ranking)
        self.epsilon = epsilon
        self.budget = budget

    # ------------------------------------------------------------------ #
    def sketch_epsilon(self, query: JoinQuery) -> float:
        """Per-sketch ε derived from the trim-level ε and the budget policy."""
        if self.budget == "practical":
            return self.epsilon
        rooted = build_join_tree(query).rooted()
        height = max(1, rooted.height())
        return self.epsilon / (4.0 ** height)

    def trim_interval(
        self, query: JoinQuery, db: Database, interval: WeightInterval
    ) -> tuple[JoinQuery, Database]:
        """The lower bound's trim, then the upper bound's over its output:
        each sketch rounds toward its own bound, so one embedding cannot
        serve both sides."""
        if interval.low is not None:
            query, db = self._trim_side(
                query, db, WeightInterval(low=interval.low, low_strict=interval.low_strict)
            )
        if interval.high is not None:
            query, db = self._trim_side(
                query, db, WeightInterval(high=interval.high, high_strict=interval.high_strict)
            )
        return query, db

    def _trim_side(
        self, query: JoinQuery, db: Database, side: WeightInterval
    ) -> tuple[JoinQuery, Database]:
        """Algorithm 4 for the one-sided interval ``side``."""
        query, db = ensure_canonical(query, db)
        weighted = frozenset(self.ranking.weighted_variables) & query.variables
        if not weighted:
            raise TrimmingError("none of the SUM variables occur in the query")
        direction = "upper" if side.low is None else "lower"
        sketch_eps = self.sketch_epsilon(query)
        rooted = build_join_tree(query).rooted()
        mu = variable_to_atom_assignment(query, weighted)

        # Per-node state: schema (variable tuple), rows, sigma_s, sigma_m.
        schema: dict[int, list[str]] = {}
        rows: dict[int, list[tuple]] = {}
        sigma_s: dict[int, list[float]] = {}
        sigma_m: dict[int, list[int]] = {}
        for node in rooted.tree.nodes():
            atom = query[node]
            relation = db[atom.relation]
            checkpoint("trim.lossy_scan", rows=len(relation))
            owned = owned_variables(mu, node)
            schema[node] = list(atom.variables)
            rows[node] = list(relation.rows)
            sigma_s[node] = [
                row_weight(self.ranking, atom.variables, row, owned)
                for row in relation.rows
            ]
            sigma_m[node] = [1] * len(relation.rows)

        current_query = query
        for node in rooted.bottom_up_order():
            for child in rooted.children[node]:
                current_query = self._absorb_child(
                    current_query,
                    node,
                    child,
                    rooted,
                    schema,
                    rows,
                    sigma_s,
                    sigma_m,
                    sketch_eps,
                    direction,
                )

        # Drop root tuples whose accumulated sum falls outside the bound.
        root = rooted.root
        keep = [index for index, total in enumerate(sigma_s[root]) if side.contains(total)]
        rows[root] = [rows[root][i] for i in keep]
        sigma_s[root] = [sigma_s[root][i] for i in keep]
        sigma_m[root] = [sigma_m[root][i] for i in keep]

        new_db = Database()
        new_atoms: list[Atom] = []
        for node in rooted.tree.nodes():
            atom = query[node]
            new_atoms.append(Atom(atom.relation, tuple(schema[node])))
            new_db.add(Relation(atom.relation, tuple(schema[node]), rows[node]))
        # Preserve original atom order (nodes() is already in atom order).
        return JoinQuery(new_atoms), new_db

    # ------------------------------------------------------------------ #
    def _absorb_child(
        self,
        current_query: JoinQuery,
        node: int,
        child: int,
        rooted: RootedJoinTree,
        schema: dict[int, list[str]],
        rows: dict[int, list[tuple]],
        sigma_s: dict[int, list[float]],
        sigma_m: dict[int, list[int]],
        sketch_eps: float,
        direction: str,
    ) -> JoinQuery:
        """Sketch one child's messages and embed them into parent and child."""
        join_vars = rooted.join_variables(node, child)
        helper = fresh_variable(current_query, f"__sketch_v{node}_{child}")

        checkpoint("trim.lossy_absorb", rows=len(rows[child]))
        child_schema = schema[child]
        child_positions = [child_schema.index(v) for v in join_vars]
        groups: dict[tuple, list[int]] = {}
        for index, row in enumerate(rows[child]):
            key = tuple(row[p] for p in child_positions)
            groups.setdefault(key, []).append(index)

        # Sketch each group once; remember per-child-row bucket id and per
        # (group, bucket) the representative sum and multiplicity.
        child_bucket: dict[int, tuple] = {}
        group_buckets: dict[tuple, list[tuple[tuple, float, int]]] = {}
        for key, indices in groups.items():
            items = [(sigma_s[child][i], sigma_m[child][i]) for i in indices]
            buckets = epsilon_sketch(items, sketch_eps, direction=direction)
            described = []
            for bucket_index, bucket in enumerate(buckets):
                bucket_id = (key, bucket_index)
                described.append((bucket_id, bucket.representative, bucket.multiplicity))
                for member in bucket.members:
                    child_bucket[indices[member]] = bucket_id
            group_buckets[key] = described

        # Child side: append the bucket id column.
        new_child_rows = []
        for index, row in enumerate(rows[child]):
            bucket_id = child_bucket.get(index)
            if bucket_id is None:
                # Zero-multiplicity row (no partial answers): drop it.
                continue
            new_child_rows.append(row + (bucket_id,))
        # Sigma arrays must stay parallel to rows.
        kept = [i for i in range(len(rows[child])) if i in child_bucket]
        sigma_s[child] = [sigma_s[child][i] for i in kept]
        sigma_m[child] = [sigma_m[child][i] for i in kept]
        rows[child] = new_child_rows
        schema[child] = child_schema + [helper]

        # Parent side: one copy per bucket of the matching group.
        checkpoint("trim.lossy_embed", rows=len(rows[node]))
        parent_schema = schema[node]
        parent_positions = [parent_schema.index(v) for v in join_vars]
        new_parent_rows: list[tuple] = []
        new_sigma_s: list[float] = []
        new_sigma_m: list[int] = []
        for index, row in enumerate(rows[node]):
            key = tuple(row[p] for p in parent_positions)
            described = group_buckets.get(key)
            if not described:
                continue  # dangling parent tuple: no partial answers below it
            for bucket_id, representative, multiplicity in described:
                new_parent_rows.append(row + (bucket_id,))
                new_sigma_s.append(sigma_s[node][index] + representative)
                new_sigma_m.append(sigma_m[node][index] * multiplicity)
        rows[node] = new_parent_rows
        sigma_s[node] = new_sigma_s
        sigma_m[node] = new_sigma_m
        schema[node] = parent_schema + [helper]

        new_atoms = []
        for atom_index, atom in enumerate(current_query.atoms):
            if atom_index in (node, child):
                new_atoms.append(Atom(atom.relation, atom.variables + (helper,)))
            else:
                new_atoms.append(atom)
        return JoinQuery(new_atoms)
