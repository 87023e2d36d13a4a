"""Canonical segment decomposition (static segment tree over positions).

The exact SUM trimming for adjacent join-tree nodes (Lemma 5.5, following the
factorized-representation construction of Tziavelis et al., PVLDB 2021)
represents a per-join-group *prefix/range* of tuples — sorted by their partial
weight — as O(log n) canonical segments.  Each tuple position belongs to
O(log n) segments (its ancestors in a perfect binary tree over positions), and
any contiguous range decomposes into disjoint canonical segments such that
every position in the range is covered by exactly one segment of the
decomposition.  That "exactly one" property is what turns the construction
into a bijection between new and old query answers.
"""

from __future__ import annotations

from repro.exceptions import ValidationError


def tree_size(length: int) -> int:
    """Number of leaves of the perfect binary tree covering ``length`` positions."""
    if length <= 0:
        return 1
    size = 1
    # repro-analysis: allow RPR001 -- O(log n) doubling loop, no row work; callers batch-checkpoint per group
    while size < length:
        size *= 2
    return size


def ancestor_segments(length: int, position: int) -> list[int]:
    """Segment ids (tree node ids) covering ``position``, from leaf to root.

    Node ids follow the standard implicit heap layout: the root is 1, the
    children of ``i`` are ``2i`` and ``2i+1``, and the leaf of ``position`` is
    ``tree_size(length) + position``.
    """
    if not 0 <= position < length:
        raise ValidationError(f"position {position} out of range [0, {length})")
    node = tree_size(length) + position
    out = []
    # repro-analysis: allow RPR001 -- O(log n) heap ascent per tuple; per-row checkpoints would defeat block batching
    while node >= 1:
        out.append(node)
        node //= 2
    return out


def range_segments(length: int, lo: int, hi: int) -> list[int]:
    """Disjoint canonical segments covering the half-open range ``[lo, hi)``.

    Every position in ``[lo, hi)`` is covered by exactly one returned segment,
    and every returned segment is an ancestor-or-self of the positions it
    covers, so intersecting with :func:`ancestor_segments` of a position hits
    at most one segment.
    """
    if lo < 0 or hi > length or lo > hi:
        raise ValidationError(f"invalid range [{lo}, {hi}) for length {length}")
    size = tree_size(length)
    out: list[int] = []
    left = lo + size
    right = hi + size
    # repro-analysis: allow RPR001 -- O(log n) canonical decomposition per group; caller checkpoints per row block
    while left < right:
        if left & 1:
            out.append(left)
            left += 1
        if right & 1:
            right -= 1
            out.append(right)
        left //= 2
        right //= 2
    return out
