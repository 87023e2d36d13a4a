"""Weighted median selection.

The pivot algorithm (Section 4.1) aggregates the pivots of a join group with
the *weighted median*: the element at position ``⌊|B|/2⌋`` of the multiset in
which each element appears as many times as its multiplicity.  The selection
runs as a whole-column kernel pipeline — a stable argsort of the keys, a
prefix sum of the multiplicities, and a binary search for the covering
position — which is ``O(n log n)`` by comparisons but in CPython beats the
pointer-chasing constant factors of the linear-time (Johnson & Mizoguchi)
machinery.  :func:`weighted_median` selects from one multiset (pivot
selection's artificial root); :func:`segmented_weighted_median` runs the same
pipeline once over all the join groups of a join-tree edge.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from itertools import accumulate
from typing import Any, TypeVar

from repro.exceptions import ValidationError
from repro.kernels import active_backend
from repro.runtime import checkpoint

Item = TypeVar("Item")


def weighted_median(
    items: Sequence[Item],
    multiplicities: Sequence[int],
    key: Callable[[Item], Any],
) -> Item:
    """Return the weighted median of ``items``.

    Parameters
    ----------
    items:
        Candidate elements.
    multiplicities:
        Non-negative multiplicities, parallel to ``items``.  Elements with
        multiplicity zero are ignored.
    key:
        Sort key; keys must be totally ordered under ``<``.

    Returns
    -------
    The element at position ``⌊(total multiplicity − 1)/2⌋`` (0-based) of the
    multiset expansion sorted by ``key`` — the *lower* median, which is the
    convention the worked example of Figure 2 in the paper follows.  Among
    elements whose keys compare equal, the first in input order is returned.

    Raises
    ------
    ValidationError
        If no element has positive multiplicity or the lengths differ.

    Examples
    --------
    >>> weighted_median(["a", "b", "c"], [1, 1, 5], key=lambda s: s)
    'c'
    """
    if len(items) != len(multiplicities):
        raise ValidationError("items and multiplicities must have the same length")
    kept_items: list[Item] = []
    kept_mults: list[int] = []
    for item, mult in zip(items, multiplicities):
        if mult > 0:
            kept_items.append(item)
            kept_mults.append(mult)
    if not kept_items:
        raise ValidationError("weighted median of an empty (or zero-weight) multiset")
    checkpoint("pivot.median", rows=len(kept_items))
    kernel = active_backend()
    keys = [key(item) for item in kept_items]
    order = kernel.argsort(keys)
    cumulative = kernel.prefix_sum(kernel.take(kept_mults, order))
    target = (cumulative[-1] - 1) // 2
    # First sorted slot whose cumulative multiplicity covers the target.
    covering = kernel.searchsorted(cumulative, [target], side="right")[0]
    # Canonicalize ties to the first element in input order with that key:
    # the argsort is stable, so the leftmost sorted slot of an equal-key run
    # holds the earliest input element.
    sorted_keys = kernel.take(keys, order)
    first = kernel.searchsorted(sorted_keys, [sorted_keys[covering]], side="left")[0]
    return kept_items[order[first]]


def segmented_weighted_median(
    group_ids: Sequence[int],
    keys: Sequence[Any],
    multiplicities: Sequence[int],
    num_groups: int,
) -> list[int]:
    """The weighted median of every group at once.

    ``group_ids`` (dense ids in ``[0, num_groups)``), ``keys`` and the
    non-negative ``multiplicities`` are parallel columns, one entry per
    member.  Entry ``g`` of the result is the position of the member that
    :func:`weighted_median` returns for group ``g``'s members taken in input
    order (lower median; first in input order among equal keys), or
    ``len(group_ids)`` when no member of the group has a positive
    multiplicity.  The keys of zero-multiplicity members are never compared.
    """
    kernel = active_backend()
    live = kernel.masked_filter(multiplicities)
    checkpoint("pivot.median", rows=len(live))
    # Stable order by (group, key, position): two stable sorts, minor key first.
    by_key = kernel.argsort(kernel.take(keys, live))
    members = kernel.take(live, by_key)
    by_group = kernel.argsort(kernel.take(group_ids, members))
    order = kernel.take(members, by_group)
    sorted_groups = kernel.take(group_ids, order)
    sorted_keys = kernel.take(keys, order)
    # Group g occupies the sorted slots [starts[g], ends[g]).
    ends = kernel.searchsorted(sorted_groups, range(num_groups), side="right")
    starts = [0] + ends[:-1]
    # running[i] = total multiplicity of the slots before i.  Plain ints and
    # plain bisection: the totals can pass 2**63 and must stay exact.
    running = list(accumulate(map(multiplicities.__getitem__, order), initial=0))
    covering = [
        bisect_right(running, running[start] + (running[end] - running[start] - 1) // 2) - 1
        for start, end in zip(starts, ends)
    ]
    # Ties go to the leftmost slot of the covering slot's run of equal keys
    # inside its group — the sort is stable, so the first in input order.
    heads = [
        slot if group != previous_group or key != previous_key else 0
        for slot, (group, previous_group, key, previous_key) in enumerate(
            zip(sorted_groups[1:], sorted_groups, sorted_keys[1:], sorted_keys), 1
        )
    ]
    run_start = list(accumulate(heads, max, initial=0))
    dead = len(group_ids)
    return [
        order[run_start[slot]] if end > start else dead
        for slot, start, end in zip(covering, starts, ends)
    ]
