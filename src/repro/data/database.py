"""Databases: named collections of relations.

A :class:`Database` maps relation symbols to :class:`~repro.data.relation.Relation`
instances and provides size accounting (``n`` = total number of tuples, the
complexity parameter of the paper).  Like its relations, a database is a
value once built: a trimming that rewrites the instance builds a new
database, putting the relations it leaves alone into it by identity.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.data.relation import Relation
from repro.exceptions import SchemaError


class Database:
    """A finite database instance: a mapping from relation names to relations.

    Parameters
    ----------
    relations:
        Either a mapping ``{name: Relation}`` or an iterable of relations
        (their ``name`` attribute is used as the key).

    Examples
    --------
    >>> db = Database([Relation("R", ("x", "y"), [(1, 2)])])
    >>> db.size
    1
    >>> db["R"].schema
    ('x', 'y')
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Mapping[str, Relation] | Iterable[Relation] = ()) -> None:
        self._relations: dict[str, Relation] = {}
        if isinstance(relations, Mapping):
            items: Iterable[Relation] = relations.values()
            for key, rel in relations.items():
                if key != rel.name:
                    raise SchemaError(
                        f"database key {key!r} does not match relation name {rel.name!r}"
                    )
        else:
            items = relations
        for rel in items:
            self.add(rel)

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"database has no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:
        parts = ", ".join(f"{r.name}[{len(r)}]" for r in self._relations.values())
        return f"Database({parts})"

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def relation_names(self) -> list[str]:
        """Names of all relations, in insertion order."""
        return list(self._relations)

    @property
    def size(self) -> int:
        """Total number of tuples across all relations (``n`` in the paper)."""
        return sum(len(r) for r in self._relations.values())

    def get(self, name: str, default: Relation | None = None) -> Relation | None:
        """Return the relation named ``name`` or ``default`` if absent."""
        return self._relations.get(name, default)

    # ------------------------------------------------------------------ #
    # Construction helper
    # ------------------------------------------------------------------ #
    def add(self, relation: Relation) -> None:
        """Register a relation under its own name, while the database is
        being built.

        Raises :class:`~repro.exceptions.SchemaError` if a relation with the
        same name already exists.
        """
        if relation.name in self._relations:
            raise SchemaError(
                f"database already contains a relation named {relation.name!r}"
            )
        self._relations[relation.name] = relation
