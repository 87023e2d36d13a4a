"""Op semantics: what each of the eight kernel ops must return.

Every op of every :class:`~repro.kernels.KernelBackend` (there is one; a
second would be added to ``BACKENDS`` and inherit the suite) is checked
against expected values worked out independently of the implementation —
literals, the defining property, or a naive loop — over numeric columns,
object columns (strings, tuples), empty and single-row edges, tie-heavy data,
and columns of thousands of rows mixing types.  Values are compared with
``==`` *and* by type: an op hands back the column's own objects or plain
Python numbers, never a coerced stand-in.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import pytest

from repro.exceptions import ValidationError
from repro.kernels import active_backend

BACKENDS = [active_backend()]
IDS = [backend.name for backend in BACKENDS]

# Representative columns: ints, floats (with ties), bools, big ints, strings,
# and tuples.
INT_COLUMN = [5, 3, 3, 9, 0, 3, 7, 5]
FLOAT_COLUMN = [2.5, -1.0, 2.5, 0.0, 3.25, -1.0, 2.5, 10.0]
BOOL_COLUMN = [True, False, True, True, False, False, True, False]
BIG_INT_COLUMN = [2**40, -(2**41), 2**40, 3, 2**40, -7, 0, 2**39]
STRING_COLUMN = ["b", "a", "b", "c", "a", "a", "d", "b"]
TUPLE_COLUMN = [(1, "x"), (0, "y"), (1, "x"), (2, "z"), (0, "y"), (1, "a"), (1, "x"), (3, "q")]
COLUMNS = {
    "ints": INT_COLUMN,
    "floats": FLOAT_COLUMN,
    "bools": BOOL_COLUMN,
    "big_ints": BIG_INT_COLUMN,
    "strings": STRING_COLUMN,
    "tuples": TUPLE_COLUMN,
}

PREFIX_SUMS = {
    "ints": [5, 8, 11, 20, 20, 23, 30, 35],
    "floats": [2.5, 1.5, 4.0, 4.0, 7.25, 6.25, 8.75, 18.75],
    # The first total is the first value itself, not 0 + it.
    "bools": [True, 1, 2, 3, 3, 3, 4, 4],
    "big_ints": [
        2**40, -(2**40), 0, 3, 2**40 + 3, 2**40 - 4, 2**40 - 4, 2**40 + 2**39 - 4,
    ],
}

GROUP_IDS = [0, 2, 1, 2, 0, 1, 2, 0]
GROUP_SUMS = {
    "ints": [10, 6, 19],
    "floats": [15.75, 1.5, 1.5],
    "bools": [1, 1, 2],
    "big_ints": [2**41 + 2**39, 2**40 - 7, 3 - 2**41],
}


def assert_plain(values):
    """Every element must be a plain Python value."""
    for value in values:
        assert type(value).__module__ == "builtins", (value, type(value))


def assert_same_objects(result, expected):
    assert len(result) == len(expected)
    assert all(got is want for got, want in zip(result, expected))


def assert_stable_order(order, column):
    """``order`` sorts ``column`` ascending, equal values by position."""
    assert sorted(order) == list(range(len(column)))
    for before, after in zip(order, order[1:]):
        assert column[before] < column[after] or (
            column[before] == column[after] and before < after
        )


def assert_groups(groups, columns, length):
    """First-occurrence key order; each group its rows, ascending."""
    keys = list(zip(*columns)) if columns else [()] * length
    assert list(groups) == list(dict.fromkeys(keys))
    for key, positions in groups.items():
        assert positions == [i for i, other in enumerate(keys) if other == key]
        assert_plain(positions)


def running_totals(values):
    totals = []
    for value in values:
        totals.append(totals[-1] + value if totals else value)
    return totals


def group_sums(group_ids, values, num_groups):
    """One left-to-right sum from 0 per group."""
    sums = []
    for group in range(num_groups):
        total = 0
        for member, value in zip(group_ids, values):
            if member == group:
                total += value
        sums.append(total)
    return sums


def assert_equal_with_types(result, expected, label=None):
    assert result == expected, label
    assert list(map(type, result)) == list(map(type, expected)), label


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
class TestOpParity:
    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_take(self, backend, name):
        column = COLUMNS[name]
        positions = [3, 0, 0, 7, 5]
        assert_same_objects(backend.take(column, positions), [column[p] for p in positions])

    def test_take_empty_and_single(self, backend):
        assert backend.take([1, 2, 3], []) == []
        assert backend.take([4.5], [0]) == [4.5]
        assert backend.take([], []) == []

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_argsort_matches_and_is_stable(self, backend, name):
        column = COLUMNS[name]
        result = backend.argsort(column)
        assert_stable_order(result, column)
        assert_plain(result)

    def test_argsort_empty_and_single(self, backend):
        assert backend.argsort([]) == []
        assert backend.argsort([7]) == [0]

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_group_by_hash_single_column(self, backend, name):
        column = COLUMNS[name]
        assert_groups(backend.group_by_hash([column], len(column)), [column], len(column))

    def test_group_by_hash_multi_column(self, backend):
        columns = [INT_COLUMN, FLOAT_COLUMN]
        result = backend.group_by_hash(columns, len(INT_COLUMN))
        assert result == {
            (5, 2.5): [0], (3, -1.0): [1, 5], (3, 2.5): [2], (9, 0.0): [3],
            (0, 3.25): [4], (7, 2.5): [6], (5, 10.0): [7],
        }
        assert_groups(result, columns, len(INT_COLUMN))

    def test_group_by_hash_edges(self, backend):
        assert backend.group_by_hash([], 0) == {}
        assert backend.group_by_hash([], 3) == {(): [0, 1, 2]}
        assert backend.group_by_hash([[]], 0) == {}
        assert backend.group_by_hash([[42]], 1) == {(42,): [0]}

    @pytest.mark.parametrize("name", ["ints", "floats", "bools", "big_ints"])
    def test_prefix_sum(self, backend, name):
        assert_equal_with_types(backend.prefix_sum(COLUMNS[name]), PREFIX_SUMS[name])

    def test_prefix_sum_empty_and_single(self, backend):
        assert backend.prefix_sum([]) == []
        assert backend.prefix_sum([5]) == [5]

    def test_masked_filter(self, backend):
        mask = [1, 0, 1, 1, 0, 0, 1, 0]
        assert backend.masked_filter(mask) == [0, 2, 3, 6]
        assert backend.masked_filter([True, False, True]) == [0, 2]
        assert backend.masked_filter([]) == []
        assert backend.masked_filter([0, 0]) == []
        assert_plain(backend.masked_filter(mask))

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", ["ints", "floats", "strings"])
    def test_searchsorted(self, backend, side, name):
        column = sorted(COLUMNS[name])
        probes = list(COLUMNS[name]) + [COLUMNS[name][0]]
        result = backend.searchsorted(column, probes, side)
        # The insertion point is the number of values below (or not above).
        if side == "left":
            assert result == [sum(value < probe for value in column) for probe in probes]
        else:
            assert result == [sum(value <= probe for value in column) for probe in probes]
        assert_plain(result)

    def test_searchsorted_edges(self, backend):
        assert backend.searchsorted([], [1, 2], "left") == [0, 0]
        assert backend.searchsorted([1, 2, 3], [], "left") == []
        assert backend.searchsorted([1, 2, 2, 3], [2, 0, 9]) == [1, 0, 4]
        with pytest.raises(ValidationError):
            backend.searchsorted([1], [1], "middle")

    @pytest.mark.parametrize("name", ["ints", "floats", "bools", "big_ints"])
    def test_sum_by_group(self, backend, name):
        result = backend.sum_by_group(GROUP_IDS, COLUMNS[name], 3)
        assert_equal_with_types(result, GROUP_SUMS[name])

    def test_sum_by_group_vectorized_sizes(self, backend):
        """Thousands of rows: small ints, floats (summed in row order, so the
        rounding is the sequential sum's), ints past 2**40."""
        n = 3000
        values = [(i * 7) % 101 for i in range(n)]
        floats = [((i * 13) % 97) / 7.0 for i in range(n)]
        big = [2**40 + i for i in range(n)]
        group_ids = [i % 37 for i in range(n)]
        for column in (values, floats, big):
            assert_equal_with_types(
                backend.sum_by_group(group_ids, column, 37), group_sums(group_ids, column, 37)
            )

    def test_sum_by_group_empty_groups_and_lengths(self, backend):
        assert backend.sum_by_group([], [], 4) == [0, 0, 0, 0]
        assert backend.sum_by_group([1], [9], 3) == [0, 9, 0]
        with pytest.raises(ValidationError):
            backend.sum_by_group([0, 1], [1], 2)

    def test_multiply(self, backend):
        assert backend.multiply(INT_COLUMN, INT_COLUMN) == [
            v * v for v in INT_COLUMN
        ]
        assert backend.multiply(FLOAT_COLUMN, INT_COLUMN) == [
            a * b for a, b in zip(FLOAT_COLUMN, INT_COLUMN)
        ]
        assert backend.multiply(BIG_INT_COLUMN, BIG_INT_COLUMN) == [
            v * v for v in BIG_INT_COLUMN
        ]
        assert backend.multiply([], []) == []
        with pytest.raises(ValidationError):
            backend.multiply([1, 2], [1])
        assert_plain(backend.multiply(INT_COLUMN, INT_COLUMN))

    def test_vectorized_lengths_match_reference(self, backend):
        """Every op on columns of thousands of rows (where an array-backed
        implementation would leave its small-input path)."""
        n = 5000
        floats = [((i * 2654435761) % 100000) / 999.0 for i in range(n)]
        ints = [(i * 31) % 1000 for i in range(n)]
        positions = [(i * 7919) % n for i in range(n)]
        mask = [1 if i % 3 else 0 for i in range(n)]
        assert_same_objects(backend.take(floats, positions), [floats[p] for p in positions])
        assert_stable_order(backend.argsort(floats), floats)
        assert_groups(backend.group_by_hash([ints], n), [ints], n)
        assert_equal_with_types(backend.prefix_sum(floats), running_totals(floats))
        assert backend.masked_filter(mask) == [i for i in range(n) if i % 3]
        sorted_floats = sorted(floats)
        assert backend.searchsorted(sorted_floats, floats, "right") == [
            bisect_right(sorted_floats, probe) for probe in floats
        ]
        assert_equal_with_types(backend.multiply(floats, floats), [v * v for v in floats])

    @pytest.mark.parametrize(
        "pattern",
        [
            [0, 2**63 + 1, 2],  # ints on both sides of 2**63: no one machine int type
            [2**60, 1.5],  # ints with floats
            [1, 2.0, 3],  # value-equal after coercion, but not the same objects
            [True, 2],  # True == 1 and hashes alike, but answers must say True
        ],
        ids=["int64-uint64", "int-float", "small-int-float", "bool-int"],
    )
    def test_mixed_columns_keep_their_own_values(self, backend, pattern):
        """Regression (array-backed ops, since removed): past ~1000 rows a
        mixed column was converted to one dtype and the ops answered from
        that array, so a gather returned ``9.223372036854776e+18`` for
        ``2**63 + 1``, ``2.0`` for ``2`` and ``1`` for ``True``."""
        column = pattern * 700
        positions = [(i * 7919) % len(column) for i in range(len(column))]
        group_ids = [i % 7 for i in range(len(column))]
        ordered = sorted(column)

        assert_same_objects(backend.take(column, positions), [column[p] for p in positions])
        assert_equal_with_types(backend.prefix_sum(column), running_totals(column), "prefix_sum")
        for side, bisect in (("left", bisect_left), ("right", bisect_right)):
            assert backend.searchsorted(ordered, column, side) == [
                bisect(ordered, probe) for probe in column
            ]
        assert_stable_order(backend.argsort(column), column)
        assert_equal_with_types(
            backend.multiply(column, column), [value * value for value in column], "multiply"
        )
        assert_equal_with_types(
            backend.sum_by_group(group_ids, column, 7), group_sums(group_ids, column, 7),
            "sum_by_group",
        )

    def test_outputs_are_reusable_as_inputs(self, backend):
        """Kernel outputs are plain lists: they feed back in, including
        after in-place appends."""
        n = 2000
        values = [float((i * 17) % 31) for i in range(n)]
        order = backend.argsort(values)
        gathered = backend.take(values, order)
        assert gathered == sorted(values)
        sums = backend.sum_by_group([i % 5 for i in range(n)], values, 5)
        sums.append(0)
        appended = backend.take(sums, list(range(6)))
        assert appended == sums
        assert type(order) is list and type(gathered) is list
