"""ε-sketches of weight multisets (Lemma 6.3, after Abo-Khamis et al. 2021).

A multiset ``L`` of (weight, multiplicity) items is compressed into
O(log_{1+ε} |L|) *buckets*; every element of a bucket is represented by the
bucket's extreme value (its maximum when the sketch protects ranks *below* a
threshold, its minimum when it protects ranks *above*).  The guarantee is

    (1 − ε) · ↓λ(L)  ≤  ↓λ(S_ε(L))  ≤  ↓λ(L)      for every λ,

where ``↓λ`` counts elements strictly below ``λ`` (and symmetrically for the
"lower" direction and counts above λ).

The paper's bucket adjustment — all copies of one source tuple's value must
land in a single bucket — is satisfied by construction here because the unit
of bucketing *is* the source item: an item is never split across buckets.  A
bucket accepts an additional item only while its current multiplicity is at
most ``ε`` times the total multiplicity strictly below the bucket, which gives
both the error guarantee and the logarithmic bucket count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class Bucket:
    """One bucket of an ε-sketch.

    Attributes
    ----------
    representative:
        The value standing in for every element of the bucket (the maximum of
        the bucket in ``direction="upper"`` mode, the minimum in ``"lower"``).
    multiplicity:
        Total multiplicity of the bucket's items.
    members:
        Indices (into the input item sequence) of the items in this bucket.
    """

    representative: float
    multiplicity: int
    members: tuple[int, ...]


def epsilon_sketch(
    items: Sequence[tuple[float, int]],
    epsilon: float,
    direction: str = "upper",
) -> list[Bucket]:
    """Compress ``items`` into an ε-sketch.

    Parameters
    ----------
    items:
        Sequence of ``(value, multiplicity)`` pairs.  Items with zero
        multiplicity are ignored.
    epsilon:
        Relative error, in ``(0, 1)``.  ``epsilon=0`` produces one bucket per
        item (an exact sketch).
    direction:
        ``"upper"`` protects counts of elements *below* any threshold (the
        representative is the bucket maximum, used for ``< λ`` trims);
        ``"lower"`` protects counts of elements *above* any threshold (bucket
        minimum, used for ``> λ`` trims).

    Returns
    -------
    The list of buckets, ordered by representative (ascending for "upper",
    descending for "lower").
    """
    if epsilon < 0 or epsilon >= 1:
        raise ValidationError(f"epsilon must be in [0, 1), got {epsilon}")
    if direction not in ("upper", "lower"):
        raise ValidationError(f"direction must be 'upper' or 'lower', got {direction!r}")
    live = [(index, value, mult) for index, (value, mult) in enumerate(items) if mult > 0]
    reverse = direction == "lower"
    live.sort(key=lambda item: item[1], reverse=reverse)

    buckets: list[Bucket] = []
    members: list[int] = []
    values: list[float] = []
    bucket_multiplicity = 0
    below_bucket = 0  # total multiplicity in already-closed buckets

    def close() -> None:
        nonlocal members, values, bucket_multiplicity, below_bucket
        representative = values[-1]
        buckets.append(Bucket(representative, bucket_multiplicity, tuple(members)))
        below_bucket += bucket_multiplicity
        members, values, bucket_multiplicity = [], [], 0

    # repro-analysis: allow RPR001 -- kernel-like op: one uninterruptible pass over a join group; LossySumTrimmer checkpoints per (node, child)
    for index, value, mult in live:
        if members and bucket_multiplicity > epsilon * below_bucket:
            close()
        members.append(index)
        values.append(value)
        bucket_multiplicity += mult
    if members:
        close()
    return buckets


def count_below(items: Sequence[tuple[float, int]], threshold: float) -> int:
    """``↓λ``: total multiplicity of items with value strictly below ``threshold``."""
    return sum(mult for value, mult in items if value < threshold)


def count_above(items: Sequence[tuple[float, int]], threshold: float) -> int:
    """``↑λ``: total multiplicity of items with value strictly above ``threshold``."""
    return sum(mult for value, mult in items if value > threshold)


def sketch_count_below(buckets: Sequence[Bucket], threshold: float) -> int:
    """Count of elements below ``threshold`` as seen through an "upper" sketch."""
    return sum(b.multiplicity for b in buckets if b.representative < threshold)


def sketch_count_above(buckets: Sequence[Bucket], threshold: float) -> int:
    """Count of elements above ``threshold`` as seen through a "lower" sketch."""
    return sum(b.multiplicity for b in buckets if b.representative > threshold)
