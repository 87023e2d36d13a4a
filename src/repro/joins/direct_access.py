"""Direct access to join answers by index (in a structure-determined order).

Section 3.1 notes that a quasilinear-time *random access* structure exists for
every acyclic JQ (Brault-Baron; Carmeli et al.): after computing the per-tuple
subtree counts, the ``i``-th answer (in an order induced by the data
structure, not by the ranking function) can be produced in logarithmic time.
This is the building block of the randomized approximation baseline and of
uniform sampling.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate
from typing import Any

from repro.data.database import Database
from repro.exceptions import EmptyResultError
from repro.joins.counting import subtree_counts
from repro.joins.message_passing import MaterializedTree
from repro.query.join_query import JoinQuery
from repro.runtime import checkpoint

Assignment = dict[str, Any]


class DirectAccess:
    """Random access (by index) into the answers of an acyclic join query.

    The order of answers is fixed but arbitrary: answers are ordered by the
    position of the root tuple, then recursively by the positions of the child
    tuples within their join groups (a mixed-radix order).  The structure is
    built in linear time; each access costs time proportional to the query
    size times a logarithmic factor for the prefix-sum searches.

    Examples
    --------
    >>> # doctest setup omitted; see tests/joins/test_direct_access_and_sampling.py
    """

    def __init__(
        self,
        query: JoinQuery,
        db: Database,
        tree: MaterializedTree | None = None,
    ) -> None:
        self.query = query
        self.tree = tree if tree is not None else MaterializedTree(query, db)
        self.counts = subtree_counts(self.tree)
        root_counts = self.counts[self.tree.root]
        self._root_prefix = list(accumulate(root_counts, initial=0))
        self._total = self._root_prefix[-1] if self._root_prefix else 0
        # Per (parent, child, group key): prefix sums of child subtree counts.
        self._group_prefix: dict[tuple[int, int, tuple], tuple[list[int], list[int]]] = {}
        for parent in self.tree.nodes_top_down():
            for child in self.tree.children(parent):
                child_counts = self.counts[child]
                checkpoint("direct_access.build", rows=len(child_counts))
                for key, indices in self.tree.child_groups(parent, child).items():
                    live = [i for i in indices if child_counts[i] > 0]
                    prefix = list(accumulate((child_counts[i] for i in live), initial=0))
                    self._group_prefix[(parent, child, key)] = (live, prefix)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._total

    def __getitem__(self, index: int) -> Assignment:
        """Return the answer at ``index`` (0-based) in the structure order."""
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError(f"answer index {index} out of range [0, {self._total})")
        root = self.tree.root
        position = bisect_right(self._root_prefix, index) - 1
        remainder = index - self._root_prefix[position]
        return self._expand(root, position, remainder)

    def __iter__(self) -> Iterator[Assignment]:
        for index in range(self._total):
            checkpoint("direct_access.iter", rows=1)
            yield self[index]

    # ------------------------------------------------------------------ #
    def _expand(self, node: int, row_index: int, remainder: int) -> Assignment:
        """Decode ``remainder`` into one partial answer rooted at the row."""
        checkpoint("direct_access.expand")
        row = self.tree.rows(node)[row_index]
        assignment = self.tree.assignment(node, row)
        children = self.tree.children(node)
        if not children:
            if remainder != 0:
                raise EmptyResultError("inconsistent direct-access decomposition")
            return assignment
        # The subtree count of the row factorizes over children; decode the
        # remainder as a mixed-radix number, one digit per child.
        child_totals: list[int] = []
        for child in children:
            key = self.tree.parent_group_key(node, row, child)
            _, prefix = self._group_prefix[(node, child, key)]
            child_totals.append(prefix[-1] if prefix else 0)
        for position, child in enumerate(children):
            radix = 1
            for later in child_totals[position + 1:]:
                radix *= later
            digit = remainder // radix if radix else 0
            remainder = remainder % radix if radix else 0
            key = self.tree.parent_group_key(node, row, child)
            live, prefix = self._group_prefix[(node, child, key)]
            child_position = bisect_right(prefix, digit) - 1
            child_remainder = digit - prefix[child_position]
            child_assignment = self._expand(child, live[child_position], child_remainder)
            assignment.update(child_assignment)
        return assignment
