"""Join Queries (JQ): conjunctions of atoms without projection.

A :class:`JoinQuery` is the query object of the paper (Section 2.1): a list of
atoms ``R1(X1), ..., Rl(Xl)``.  Query answers are homomorphisms from the query
variables to domain constants such that every atom maps to a database tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.data.database import Database
from repro.exceptions import QueryError, SchemaError
from repro.query.atom import Atom
from repro.query.hypergraph import Hypergraph
from repro.runtime import checkpoint

Assignment = dict[str, Any]


class JoinQuery:
    """A join query: a non-empty sequence of atoms.

    Parameters
    ----------
    atoms:
        The atoms of the query, in any order.  Atom order is preserved and
        atoms are addressed by their index (this is how self-joins are told
        apart).

    Examples
    --------
    >>> q = JoinQuery([Atom("R", ("x1", "x2")), Atom("S", ("x2", "x3"))])
    >>> sorted(q.variables)
    ['x1', 'x2', 'x3']
    >>> q.is_self_join_free
    True
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Atom]) -> None:
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        if not self.atoms:
            raise QueryError("a join query must have at least one atom")

    @classmethod
    def parse(cls, spec: str) -> "JoinQuery":
        """Parse a textual query spec such as ``"R(x1, x2), S(x2, x3)"``.

        Atoms are comma-separated; each atom binds its relation's columns to
        query variables by position.  Raises :class:`QueryError` on malformed
        input.

        Examples
        --------
        >>> JoinQuery.parse("R(x1, x2), S(x2, x3)")
        JoinQuery(R(x1, x2), S(x2, x3))
        """
        from repro.query.parser import parse_join_query

        return parse_join_query(spec)

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __getitem__(self, index: int) -> Atom:
        return self.atoms[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinQuery):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return "JoinQuery(" + ", ".join(str(a) for a in self.atoms) + ")"

    @property
    def variables(self) -> frozenset[str]:
        """``var(Q)``: the union of variables over all atoms."""
        out: set[str] = set()
        for atom in self.atoms:
            out.update(atom.variables)
        return frozenset(out)

    @property
    def relation_names(self) -> list[str]:
        """Relation symbols of the atoms (with repetitions for self-joins)."""
        return [atom.relation for atom in self.atoms]

    @property
    def is_self_join_free(self) -> bool:
        """Whether every relation symbol occurs in at most one atom."""
        names = self.relation_names
        return len(names) == len(set(names))

    def atoms_with_variable(self, variable: str) -> list[int]:
        """Indices of atoms whose variable set contains ``variable``."""
        return [i for i, atom in enumerate(self.atoms) if variable in atom.variable_set]

    # ------------------------------------------------------------------ #
    # Hypergraph / acyclicity
    # ------------------------------------------------------------------ #
    def hypergraph(self) -> Hypergraph:
        """The hypergraph ``H(Q)``: vertices are variables, hyperedges are atoms."""
        return Hypergraph(
            vertices=self.variables,
            hyperedges=[atom.variable_set for atom in self.atoms],
        )

    @property
    def is_acyclic(self) -> bool:
        """Whether the query hypergraph admits a join tree (alpha-acyclicity)."""
        return self.hypergraph().is_acyclic

    # ------------------------------------------------------------------ #
    # Validation and brute-force evaluation (testing oracle)
    # ------------------------------------------------------------------ #
    def validate_against(self, db: Database) -> None:
        """Check that every atom refers to an existing relation of matching arity."""
        for atom in self.atoms:
            if atom.relation not in db:
                raise SchemaError(
                    f"query atom {atom} refers to missing relation {atom.relation!r}"
                )
            relation = db[atom.relation]
            if relation.arity != atom.arity:
                raise SchemaError(
                    f"query atom {atom} has arity {atom.arity} but relation "
                    f"{atom.relation!r} has arity {relation.arity}"
                )

    def answers_brute_force(self, db: Database) -> list[Assignment]:
        """Enumerate all query answers by nested-loop join.

        This is exponential in the query size and linear in the product of
        relation sizes; it exists purely as a correctness oracle for tests and
        for the materialization baseline on tiny inputs.  Use
        :func:`repro.joins.yannakakis.evaluate` for anything larger.
        """
        self.validate_against(db)
        partial: list[Assignment] = [{}]
        for atom in self.atoms:
            relation = db[atom.relation]
            extended: list[Assignment] = []
            for assignment in partial:
                checkpoint("materialize.brute_force", rows=len(relation.rows))
                for row in relation.rows:
                    merged = _merge_assignment(assignment, atom.variables, row)
                    if merged is not None:
                        extended.append(merged)
            partial = extended
            if not partial:
                break
        return partial

    def satisfies(self, assignment: Mapping[str, Any], db: Database) -> bool:
        """Check whether a full assignment is a query answer over ``db``."""
        for atom in self.atoms:
            relation = db[atom.relation]
            try:
                expected = tuple(assignment[v] for v in atom.variables)
            except KeyError:
                return False
            if expected not in set(relation.rows):
                return False
        return True


def _merge_assignment(
    assignment: Assignment, variables: Sequence[str], row: tuple[Any, ...]
) -> Assignment | None:
    """Extend ``assignment`` with ``variables -> row`` values, or return None
    if the row contradicts the assignment (or repeats a variable inconsistently)."""
    merged = dict(assignment)
    for variable, value in zip(variables, row):
        if variable in merged:
            if merged[variable] != value:
                return None
        else:
            merged[variable] = value
    return merged
