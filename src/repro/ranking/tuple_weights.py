"""Attribute weights to tuple weights (Section 2.2, "Tuple weights").

Several constructions (the SUM trimmings in particular) are easier to state
over *tuple* weights: each weighted variable is assigned to exactly one atom
via a mapping ``μ`` so that no variable's weight is counted twice, and the
weight contribution of a database tuple is the aggregate of the weights of
the variables it owns.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.exceptions import RankingError
from repro.query.join_query import JoinQuery
from repro.ranking.base import RankingFunction, Weight


def variable_to_atom_assignment(
    query: JoinQuery,
    variables: Iterable[str],
    preferred_atoms: Sequence[int] | None = None,
) -> dict[str, int]:
    """Build the mapping ``μ`` from weighted variables to owning atoms.

    Each variable is assigned to one atom that contains it.  Atoms listed in
    ``preferred_atoms`` are tried first (used by exact SUM's cover pair to
    keep all weights on the designated pair of atoms).

    Raises
    ------
    RankingError
        If some variable does not occur in any atom of the query.
    """
    order = list(preferred_atoms or []) + [
        i for i in range(len(query)) if preferred_atoms is None or i not in preferred_atoms
    ]
    assignment: dict[str, int] = {}
    for variable in variables:
        owner = next(
            (i for i in order if variable in query[i].variable_set), None
        )
        if owner is None:
            raise RankingError(
                f"weighted variable {variable!r} does not occur in the query"
            )
        assignment[variable] = owner
    return assignment


def owned_variables(mu: Mapping[str, int], atom_index: int) -> list[str]:
    """The weighted variables owned by atom ``atom_index`` under ``μ``."""
    return sorted(v for v, owner in mu.items() if owner == atom_index)


def row_weight(
    ranking: RankingFunction,
    atom_variables: Sequence[str],
    row: tuple[Any, ...],
    owned: Iterable[str],
) -> Weight:
    """Aggregate weight contributed by one database tuple.

    Parameters
    ----------
    ranking:
        The ranking function supplying ``w_x`` and the aggregate.
    atom_variables:
        The schema of the atom the tuple belongs to (variable per column).
    row:
        The database tuple.
    owned:
        The weighted variables owned by this atom under ``μ``.
    """
    position = {variable: i for i, variable in enumerate(atom_variables)}
    weight = ranking.identity
    for variable in owned:
        weight = ranking.combine(
            weight, ranking.variable_weight(variable, row[position[variable]])
        )
    return weight
