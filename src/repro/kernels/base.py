"""The kernel backend: the fixed op set of the physical layer.

:class:`KernelBackend` is the narrow seam between the join stack's
*logical* algorithms (semijoin reduction, counting, pivoting, trimming) and
the *physical* column operations they spend their time in.  Hot paths do not
loop over rows themselves; they call one of the ops below on whole columns.

The op set is deliberately small and fixed:

=================  ==========================================================
``take``           gather ``values[p]`` for every position ``p`` (fancy index)
``argsort``        stable sort order of a column (positions, not values)
``group_by_hash``  ``{key tuple: [row positions]}`` over one or more columns
``prefix_sum``     inclusive running totals of a numeric column
``masked_filter``  positions of the truthy entries of a 0/1 mask
``searchsorted``   batch bisection of probes into a sorted column
``sum_by_group``   per-group sums of a value column under dense group ids
``multiply``       elementwise product of two parallel numeric columns
=================  ==========================================================

Contract:

* Inputs are plain Python sequences; outputs are plain Python ``list``/
  ``dict`` objects holding the *input's own* value objects (``take`` of a
  column mixing ``True``, ``1`` and ``1.0`` hands back exactly those) or
  plain Python numbers computed from them, so downstream hashing, JSON
  serialization, ``repr`` and equality see what the relations hold.
* ``group_by_hash`` keys appear in **first-occurrence order** and the
  positions inside each group are ascending (row order), which is what
  makes results reproducible bit for bit.
* Ops never call :func:`repro.runtime.checkpoint`: budget and cancellation
  checkpoints live at the *call sites*, one per whole-column op instead of
  one per row, so a kernel call is an uninterruptible unit whose cost is
  linear in its inputs (see the RPR001 waivers inline).

Every op is the tightest pure-Python form of the loop it replaced:
comprehensions and stdlib C helpers (``sorted``, ``itertools.accumulate``,
``bisect``) rather than index-juggling loops.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import Any, ClassVar

from repro.exceptions import ValidationError

Value = Any
Key = tuple[Any, ...]


class KernelBackend:
    """The stdlib implementation of the kernel op set (see the module docstring)."""

    #: Short backend identifier, reported by the service ``/stats`` endpoint,
    #: the CLI ``serve`` banner and the JSON benchmark artifacts.
    name: ClassVar[str] = "python"

    # ------------------------------------------------------------------ #
    def take(self, values: Sequence[Value], positions: Sequence[int]) -> list[Value]:
        """Gather ``[values[p] for p in positions]``."""
        return [values[p] for p in positions]

    def argsort(self, values: Sequence[Value]) -> list[int]:
        """Positions that sort ``values`` ascending; **stable** on ties."""
        # sorted() is stable, so equal values keep ascending positions.
        return sorted(range(len(values)), key=values.__getitem__)

    def group_by_hash(
        self, columns: Sequence[Sequence[Value]], length: int
    ) -> dict[Key, list[int]]:
        """Group row positions by their key tuple across ``columns``.

        Keys are tuples (one entry per column) in first-occurrence order;
        positions within a group are ascending.  With no columns, every row
        belongs to the single group keyed by ``()`` (no group when
        ``length`` is zero).
        """
        groups: dict[Key, list[int]] = {}
        if not columns:
            if length:
                groups[()] = list(range(length))
            return groups
        if len(columns) == 1:
            # repro-analysis: allow RPR001 -- kernel op: one uninterruptible linear pass, checkpoints live at call sites
            for position, value in enumerate(columns[0]):
                groups.setdefault((value,), []).append(position)
        else:
            # repro-analysis: allow RPR001 -- kernel op: one uninterruptible linear pass, checkpoints live at call sites
            for position, key in enumerate(zip(*columns)):
                groups.setdefault(key, []).append(position)
        return groups

    def prefix_sum(self, values: Sequence[Value]) -> list[Value]:
        """Inclusive running totals: ``out[i] = values[0] + ... + values[i]``."""
        return list(accumulate(values))

    def masked_filter(self, mask: Sequence[Value]) -> list[int]:
        """Positions of the truthy entries of ``mask``, ascending."""
        return [position for position, keep in enumerate(mask) if keep]

    def searchsorted(
        self, sorted_values: Sequence[Value], probes: Sequence[Value], side: str = "left"
    ) -> list[int]:
        """Batch bisection: one insertion point per probe.

        ``side`` is ``"left"`` (:func:`bisect.bisect_left` semantics) or
        ``"right"`` (:func:`bisect.bisect_right`).
        """
        if side == "left":
            return [bisect_left(sorted_values, probe) for probe in probes]
        if side == "right":
            return [bisect_right(sorted_values, probe) for probe in probes]
        raise ValidationError(f"searchsorted side must be 'left' or 'right', got {side!r}")

    def sum_by_group(
        self, group_ids: Sequence[int], values: Sequence[Value], num_groups: int
    ) -> list[Value]:
        """Per-group sums: ``out[g] = sum(values[i] for i with group_ids[i] == g)``.

        ``group_ids`` are dense ids in ``[0, num_groups)``; groups that
        receive no value sum to 0.  Values are accumulated in row order, so
        float results match a sequential left-to-right sum.
        """
        if len(group_ids) != len(values):
            raise ValidationError(
                f"sum_by_group got {len(group_ids)} group ids for {len(values)} values"
            )
        sums: list[Value] = [0] * num_groups
        # repro-analysis: allow RPR001 -- kernel op: one uninterruptible linear pass, checkpoints live at call sites
        for group, value in zip(group_ids, values):
            sums[group] += value
        return sums

    def multiply(self, left: Sequence[Value], right: Sequence[Value]) -> list[Value]:
        """Elementwise product of two equal-length numeric columns."""
        if len(left) != len(right):
            raise ValidationError(
                f"multiply got columns of lengths {len(left)} and {len(right)}"
            )
        return [a * b for a, b in zip(left, right)]
