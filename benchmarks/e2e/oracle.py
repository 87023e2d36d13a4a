"""Independent oracle: brute-force the join, sort the weights, index them.

Deliberately shares no code with the program under test (nothing from
``repro.joins`` / ``repro.baselines``, no ``repro`` import at all): a
left-deep hash join over the raw rows whose last level yields weights only,
a plain sort, and Algorithm 1's target index ``min(N-1, floor(phi*N))``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import itemgetter
from typing import Any, Callable, Sequence

from workloads import Rows, atoms_of


def _weigher(ranking: str, variables: Sequence[str]) -> Callable[[tuple], Any]:
    """``"sum(x1, x3)"`` → a function from an assignment tuple to its weight."""
    kind, _, inner = ranking.replace(" ", "").rstrip(")").partition("(")
    positions = [variables.index(v) for v in inner.split(",")]
    if len(positions) == 1:
        only = positions[0]
        if kind == "lex":
            return lambda full: [full[only]]
        return lambda full: full[only]
    pick = itemgetter(*positions)
    if kind == "lex":
        return lambda full: list(pick(full))
    aggregate = {"sum": sum, "min": min, "max": max}[kind]
    return lambda full: aggregate(pick(full))


def sorted_weights(query: str, rows: Rows, ranking: str) -> list:
    """Weights of every join answer of ``query`` over ``rows``, ascending."""
    atoms = atoms_of(query)
    variables: list[str] = []
    partials: list[tuple] = [()]
    for depth, (name, schema) in enumerate(atoms):
        shared = [v for v in schema if v in variables]
        fresh = [i for i, v in enumerate(schema) if v not in variables]
        key_of_row = [schema.index(v) for v in shared]
        key_of_partial = [variables.index(v) for v in shared]
        index: dict[tuple, list[tuple]] = defaultdict(list)
        for row in rows[name][1]:
            index[tuple(row[i] for i in key_of_row)].append(
                tuple(row[i] for i in fresh)
            )
        variables.extend(schema[i] for i in fresh)
        if depth < len(atoms) - 1:
            partials = [
                partial + tail
                for partial in partials
                for tail in index.get(tuple(partial[i] for i in key_of_partial), ())
            ]
            continue
        weigh = _weigher(ranking, variables)
        weights = [
            weigh(partial + tail)
            for partial in partials
            for tail in index.get(tuple(partial[i] for i in key_of_partial), ())
        ]
        weights.sort()
        return weights
    return []


def expected_quantiles(weights: list, phis: Sequence[float]) -> dict[str, Any]:
    """``total_answers`` plus ``weight`` and ``target_index`` per φ."""
    total = len(weights)
    quantiles = []
    for phi in phis:
        target = min(total - 1, max(0, math.floor(phi * total)))
        quantiles.append(
            {"phi": phi, "target_index": target, "weight": weights[target]}
        )
    return {"total_answers": total, "quantiles": quantiles}


def expected_for(query: str, rows: Rows, rankings: Sequence[str], phis: Sequence[float]) -> dict[str, Any]:
    """The oracle's answers for every ranking: ``{ranking: expected_quantiles}``."""
    return {
        ranking: expected_quantiles(sorted_weights(query, rows, ranking), phis)
        for ranking in rankings
    }
