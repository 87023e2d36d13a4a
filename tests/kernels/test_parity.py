"""Backend parity: every kernel op must be bit-identical across backends.

Each op is exercised on both backends over the same inputs — numeric
columns, object columns that force the NumPy backend's stdlib fallback,
empty and single-row edges, and tie-heavy data — and the outputs are
compared with ``==`` *and* element types are checked, so a NumPy scalar
leaking out of the NumPy backend fails loudly.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.kernels import create_backend


def _backends():
    backends = [create_backend("python")]
    try:
        import numpy  # noqa: F401
    except ImportError:
        return backends
    backends.append(create_backend("numpy"))
    return backends


BACKENDS = _backends()
IDS = [backend.name for backend in BACKENDS]

# Representative columns: ints, floats (with ties), bools, big ints past the
# int64-exactness guard, strings, and tuples (object fallback paths).
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


def python_reference(op, *args, **kwargs):
    return getattr(create_backend("python"), op)(*args, **kwargs)


def assert_plain(values):
    """Every element must be a plain Python value, not a NumPy scalar."""
    for value in values:
        assert type(value).__module__ == "builtins", (value, type(value))


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
class TestOpParity:
    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_take(self, backend, name):
        column = COLUMNS[name]
        positions = [3, 0, 0, 7, 5]
        result = backend.take(column, positions)
        assert result == [column[p] for p in positions]
        if name not in ("tuples",):
            assert_plain(result)

    def test_take_empty_and_single(self, backend):
        assert backend.take([1, 2, 3], []) == []
        assert backend.take([4.5], [0]) == [4.5]
        assert backend.take([], []) == []

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_argsort_matches_and_is_stable(self, backend, name):
        column = COLUMNS[name]
        result = backend.argsort(column)
        assert result == sorted(range(len(column)), key=column.__getitem__)
        assert_plain(result)

    def test_argsort_empty_and_single(self, backend):
        assert backend.argsort([]) == []
        assert backend.argsort([7]) == [0]

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_group_by_hash_single_column(self, backend, name):
        column = COLUMNS[name]
        result = backend.group_by_hash([column], len(column))
        assert result == python_reference("group_by_hash", [column], len(column))
        # dict insertion order is part of the contract (first occurrence)
        assert list(result) == list(
            python_reference("group_by_hash", [column], len(column))
        )
        for positions in result.values():
            assert positions == sorted(positions)
            assert_plain(positions)

    def test_group_by_hash_multi_column(self, backend):
        columns = [INT_COLUMN, FLOAT_COLUMN]
        result = backend.group_by_hash(columns, len(INT_COLUMN))
        reference = python_reference("group_by_hash", columns, len(INT_COLUMN))
        assert result == reference
        assert list(result) == list(reference)

    def test_group_by_hash_edges(self, backend):
        assert backend.group_by_hash([], 0) == {}
        assert backend.group_by_hash([], 3) == {(): [0, 1, 2]}
        assert backend.group_by_hash([[]], 0) == {}
        assert backend.group_by_hash([[42]], 1) == {(42,): [0]}

    @pytest.mark.parametrize("name", ["ints", "floats", "bools", "big_ints"])
    def test_prefix_sum(self, backend, name):
        column = COLUMNS[name]
        result = backend.prefix_sum(column)
        assert result == python_reference("prefix_sum", column)
        assert_plain(result)

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
        assert result == python_reference("searchsorted", column, probes, side)
        assert_plain(result)

    def test_searchsorted_edges(self, backend):
        assert backend.searchsorted([], [1, 2], "left") == [0, 0]
        assert backend.searchsorted([1, 2, 3], [], "left") == []
        with pytest.raises(ValidationError):
            backend.searchsorted([1], [1], "middle")

    @pytest.mark.parametrize("name", ["ints", "floats", "bools", "big_ints"])
    def test_sum_by_group(self, backend, name):
        values = COLUMNS[name]
        group_ids = [0, 2, 1, 2, 0, 1, 2, 0]
        result = backend.sum_by_group(group_ids, values, 3)
        assert result == python_reference("sum_by_group", group_ids, values, 3)
        assert_plain(result)

    def test_sum_by_group_vectorized_sizes(self, backend):
        """Exercise lengths past the small-input cutoffs on both paths."""
        n = 3000
        values = [(i * 7) % 101 for i in range(n)]
        floats = [((i * 13) % 97) / 7.0 for i in range(n)]
        group_ids = [i % 37 for i in range(n)]
        assert backend.sum_by_group(group_ids, values, 37) == python_reference(
            "sum_by_group", group_ids, values, 37
        )
        assert backend.sum_by_group(group_ids, floats, 37) == python_reference(
            "sum_by_group", group_ids, floats, 37
        )
        big = [2**40 + i for i in range(n)]
        assert backend.sum_by_group(group_ids, big, 37) == python_reference(
            "sum_by_group", group_ids, big, 37
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
        """Ops above the cutoffs stay identical to the stdlib reference."""
        n = 5000
        floats = [((i * 2654435761) % 100000) / 999.0 for i in range(n)]
        ints = [(i * 31) % 1000 for i in range(n)]
        positions = [(i * 7919) % n for i in range(n)]
        mask = [1 if i % 3 else 0 for i in range(n)]
        assert backend.take(floats, positions) == python_reference(
            "take", floats, positions
        )
        assert backend.argsort(floats) == python_reference("argsort", floats)
        assert backend.group_by_hash([ints], n) == python_reference(
            "group_by_hash", [ints], n
        )
        assert backend.prefix_sum(floats) == python_reference("prefix_sum", floats)
        assert backend.masked_filter(mask) == python_reference("masked_filter", mask)
        sorted_floats = sorted(floats)
        assert backend.searchsorted(sorted_floats, floats, "right") == (
            python_reference("searchsorted", sorted_floats, floats, "right")
        )
        assert backend.multiply(floats, floats) == python_reference(
            "multiply", floats, floats
        )

    @pytest.mark.parametrize(
        "pattern",
        [
            [0, 2**63 + 1, 2],  # ints on both sides of 2**63: asarray gives float64
            [2**60, 1.5],  # ints with floats
            [1, 2.0, 3],  # value-equal after coercion, but not the same objects
        ],
        ids=["int64-uint64", "int-float", "small-int-float"],
    )
    def test_mixed_columns_keep_their_own_values(self, backend, pattern):
        """Regression: above the cutoffs ``np.asarray`` turned a mixed column
        into one dtype and the ops answered from that array, so a gather
        returned ``9.223372036854776e+18`` for ``2**63 + 1``."""
        column = pattern * 700
        positions = [(i * 7919) % len(column) for i in range(len(column))]
        for op, args in [
            ("take", (column, positions)),
            ("prefix_sum", (column,)),
            ("searchsorted", (sorted(column), column, "right")),
            ("argsort", (column,)),
            ("multiply", (column, column)),
            ("sum_by_group", ([i % 7 for i in range(len(column))], column, 7)),
        ]:
            result = getattr(backend, op)(*args)
            expected = python_reference(op, *args)
            assert result == expected, op
            assert list(map(type, result)) == list(map(type, expected)), op

    def test_outputs_are_reusable_as_inputs(self, backend):
        """Kernel outputs (possibly array-backed lists) feed back in cleanly,
        including after in-place appends (the caches must detect those)."""
        n = 2000
        values = [float((i * 17) % 31) for i in range(n)]
        order = backend.argsort(values)
        gathered = backend.take(values, order)
        assert gathered == sorted(values)
        sums = backend.sum_by_group([i % 5 for i in range(n)], values, 5)
        sums.append(0)
        appended = backend.take(sums, list(range(6)))
        assert appended == sums
        assert isinstance(order, list) and isinstance(gathered, list)


def test_numpy_conversion_cache_is_bounded_by_elements():
    """The identity-keyed conversion cache holds strong references, so it is
    bounded by total cached elements, not just by entry count: candidate-sized
    columns must not stay pinned after their query is done."""
    pytest.importorskip("numpy")
    from repro.kernels import numpy_backend

    backend = create_backend("numpy")
    positions = list(range(0, 10_000, 2))
    for batch in range(300):
        column = [float(batch + i) for i in range(10_000)]
        assert backend.take(column, positions)[1] == float(batch + 2)
        cached = sum(len(values) for values, _ in backend._conversions.values())
        assert cached <= numpy_backend._CACHE_MAX_ELEMENTS
        assert len(backend._conversions) <= numpy_backend._CACHE_CAPACITY
