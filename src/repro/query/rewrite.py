"""Query/database canonicalization: self-join elimination and atom-owned relations.

Several constructions in the paper start by "materializing a fresh relation
for every repeated symbol" (Section 2.2, tuple weights; Appendix D).  We go a
small step further and give *every* atom its own uniquely named relation,
whose schema is exactly the atom's (distinct) variables.  After this rewrite:

* the query is self-join free (each relation name occurs once),
* repeated variables inside an atom (``R(x, x)``) have been resolved by
  filtering and projecting the relation, and
* trimming constructions can rewrite the relation of one atom without
  affecting any other atom.

The rewrite preserves the set of query answers exactly.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.atom import Atom
from repro.query.join_query import JoinQuery

#: Separator used when generating per-atom relation names.
ATOM_RELATION_SEPARATOR = "__atom"


def atom_relation_name(relation: str, atom_index: int) -> str:
    """Name of the materialized relation owned by atom ``atom_index``."""
    return f"{relation}{ATOM_RELATION_SEPARATOR}{atom_index}"


def canonicalize(query: JoinQuery, db: Database) -> tuple[JoinQuery, Database]:
    """Return an equivalent (query, database) pair with atom-owned relations.

    Each atom ``i`` over symbol ``R`` becomes an atom over the fresh symbol
    ``R__atom{i}`` whose relation holds the rows of ``R`` (filtered for
    repeated-variable consistency and projected to one column per distinct
    variable).  The answer sets of the old and new queries coincide.
    """
    query.validate_against(db)
    new_atoms: list[Atom] = []
    new_db = Database()
    for index, atom in enumerate(query.atoms):
        source = db[atom.relation]
        distinct_vars: list[str] = []
        first_position: dict[str, int] = {}
        for position, variable in enumerate(atom.variables):
            if variable not in first_position:
                first_position[variable] = position
                distinct_vars.append(variable)
        rows = []
        for row in source.rows:
            # A column is not compared with itself: NaN != NaN.
            consistent = all(
                row[pos] == row[first_position[var]]
                for pos, var in enumerate(atom.variables)
                if pos != first_position[var]
            )
            if consistent:
                rows.append(tuple(row[first_position[var]] for var in distinct_vars))
        name = atom_relation_name(atom.relation, index)
        new_db.add(Relation(name, tuple(distinct_vars), rows))
        new_atoms.append(Atom(name, tuple(distinct_vars)))
    return JoinQuery(new_atoms), new_db


def is_canonical(query: JoinQuery, db: Database) -> bool:
    """Whether the pair already has atom-owned relations with variable schemas."""
    if not query.is_self_join_free:
        return False
    for atom in query.atoms:
        if atom.has_repeated_variables:
            return False
        if atom.relation not in db:
            return False
        if db[atom.relation].schema != atom.variables:
            return False
    return True


def ensure_canonical(query: JoinQuery, db: Database) -> tuple[JoinQuery, Database]:
    """Canonicalize unless the pair is already canonical (idempotent helper)."""
    if is_canonical(query, db):
        return query, db
    return canonicalize(query, db)
