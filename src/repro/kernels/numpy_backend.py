"""The optional NumPy kernel backend: whole-array ops, stdlib semantics.

Subclasses the pure-Python backend so every op has a correct fallback: the
NumPy fast path only engages when the inputs convert to a 1-D numeric array
(integer, float, or bool dtype).  Object columns (tuples, strings, mixed
types), integer columns too large for exact ``int64`` arithmetic, and
inputs below the per-op vectorization thresholds (where fixed conversion
cost exceeds the vectorization win) all route to the stdlib
implementation, so results are bit-identical either way.

Exactness rules enforced here:

* Outputs are converted back to plain Python values (``.tolist()``); NumPy
  scalars never escape, so hashing, JSON, and ``repr`` behave identically
  across backends.
* Integer ``sum_by_group`` / ``multiply`` / ``prefix_sum`` only run
  vectorized when every input magnitude is ≤ 2**31 and the column length is
  ≤ 2**31, which bounds the results within exact ``int64`` range; anything
  larger (e.g. answer counts of adversarially deep joins) uses the
  arbitrary-precision stdlib path.
* ``argsort``/``searchsorted`` on a float column compare like Python floats
  (both are IEEE doubles).
* A float64 array is only accepted for a column of floats: ``np.asarray``
  also turns ints mixed with floats, and ints on both sides of 2**63, into
  float64, which would hand back values the column never held.  The test is
  one C-level pass over a list that converted to floats, once per list.

Import of this module requires NumPy; :mod:`repro.kernels` treats an
``ImportError`` as "backend unavailable" and falls back gracefully.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, ClassVar

import numpy  # noqa: F401 - re-exported below; absence = backend unavailable

from repro.kernels.base import Key, Value
from repro.kernels.python import PythonKernelBackend

np: Any = numpy

#: Numeric dtype kinds the fast path accepts (signed/unsigned int, float, bool).
_NUMERIC_KINDS = "iufb"

#: Magnitude bound keeping integer sums and pairwise products inside int64.
_INT_SAFE_BOUND = 2**31

#: Bound on ``max |value| * length`` under which float64 accumulation of an
#: integer column is exact (every partial sum stays below 2**53).
_FLOAT_EXACT_BOUND = 2**53

#: Conversion-cache capacity; the cache is cleared wholesale when full.
_CACHE_CAPACITY = 256

#: Bound on the total *elements* the conversion cache pins (entries hold
#: strong references): a few candidate-sized columns must not outlive their
#: query just because fewer than ``_CACHE_CAPACITY`` lists were converted.
_CACHE_MAX_ELEMENTS = 262_144

#: Below this many rows an op routes to the stdlib implementation: the fixed
#: per-call cost of ndarray conversion exceeds what vectorization saves.
_MIN_VECTOR_ROWS = 1024

#: Batched-bisection threshold: under this many probes, per-probe stdlib
#: bisection (O(log n) each, no conversion) beats one vectorized search.
_MIN_VECTOR_PROBES = 32

#: ``sum_by_group`` vectorizes from much smaller inputs: ``np.bincount``
#: wins over the per-row accumulation loop almost immediately.
_MIN_VECTOR_GROUP_ROWS = 128


class _ArrayList(list[Value]):
    """A kernel-op output: a plain list that remembers its ndarray source.

    Behaves exactly like the list it is (indexing yields plain Python
    values, ``isinstance(x, list)`` holds, slicing returns plain lists);
    the remembered array lets a later kernel call skip re-conversion when
    the list is fed back in unchanged.
    """

    __slots__ = ("_repro_array",)

    _repro_array: Any


class NumpyKernelBackend(PythonKernelBackend):
    """NumPy implementation of the kernel op set with stdlib fallbacks.

    Conversions between Python lists and ndarrays dominate the cost of the
    individual ops, so the backend caches them both ways: numeric outputs
    are :class:`_ArrayList` instances carrying their source array, and
    plain-list inputs are remembered in a small identity-keyed cache (the
    kernel input contract — columns are frozen once passed — is what makes
    identity caching sound; a length change is detected and re-converts).
    """

    name: ClassVar[str] = "numpy"

    def __init__(self) -> None:
        # id(list) -> (the list itself, its converted array).  Holding the
        # list strongly pins its id, so an entry can never alias a new
        # object; bounded (entries and total elements) by wholesale clearing.
        self._conversions: dict[int, tuple[list[Value], Any]] = {}
        self._cached_elements = 0

    # ------------------------------------------------------------------ #
    # Conversion helpers
    # ------------------------------------------------------------------ #
    def _as_numeric(self, values: Sequence[Value]) -> Any | None:
        """``values`` as a 1-D numeric ndarray, or ``None`` for the fallback."""
        if isinstance(values, np.ndarray):
            array = values
            if array.ndim != 1 or array.dtype.kind not in _NUMERIC_KINDS:
                return None
            return array
        if isinstance(values, _ArrayList):
            array = values._repro_array
            if len(array) == len(values):  # appended-to outputs re-convert
                return array
        elif isinstance(values, list):
            entry = self._conversions.get(id(values))
            if (
                entry is not None
                and entry[0] is values
                and len(entry[1]) == len(values)
            ):
                return entry[1]
        try:
            array = np.asarray(values)
        except (TypeError, ValueError, OverflowError):
            return None
        if array.ndim != 1 or array.dtype.kind not in _NUMERIC_KINDS:
            return None
        if array.dtype.kind == "f" and set(map(type, values)) != {float}:
            return None  # coerced: the array does not hold the column's values
        if isinstance(values, list):
            if (
                len(self._conversions) >= _CACHE_CAPACITY
                or self._cached_elements + len(values) > _CACHE_MAX_ELEMENTS
            ):
                self._conversions.clear()
                self._cached_elements = 0
            self._conversions[id(values)] = (values, array)
            self._cached_elements += len(values)
        return array

    @staticmethod
    def _wrap(array: Any) -> list[Value]:
        """``array`` as a plain-Python list remembering its source array."""
        out = _ArrayList(array.tolist())
        out._repro_array = array
        return out

    def _as_exact_int(self, values: Sequence[Value]) -> Any | None:
        """``values`` as an int64 array safe for exact sums/products."""
        array = self._as_numeric(values)
        if array is None or array.dtype.kind not in "iub":
            return None
        if len(array) > _INT_SAFE_BOUND:
            return None
        if len(array) and abs(int(array.max())) > _INT_SAFE_BOUND:
            return None
        if len(array) and abs(int(array.min())) > _INT_SAFE_BOUND:
            return None
        return array.astype(np.int64, copy=False)

    def _positions(self, positions: Sequence[int]) -> Any | None:
        array = self._as_numeric(positions)
        if array is not None and array.dtype.kind in "iu":
            return array.astype(np.intp, copy=False)
        try:
            return np.asarray(positions, dtype=np.intp)
        except (TypeError, ValueError, OverflowError):
            return None

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    def take(self, values: Sequence[Value], positions: Sequence[int]) -> list[Value]:
        if len(positions) < _MIN_VECTOR_ROWS:
            return super().take(values, positions)
        array = self._as_numeric(values)
        if array is None:
            return super().take(values, positions)
        index = self._positions(positions)
        if index is None:
            return super().take(values, positions)
        return self._wrap(array[index])

    def argsort(self, values: Sequence[Value]) -> list[int]:
        if len(values) < _MIN_VECTOR_ROWS:
            return super().argsort(values)
        array = self._as_numeric(values)
        if array is None:
            return super().argsort(values)
        return self._wrap(np.argsort(array, kind="stable"))

    def group_by_hash(
        self, columns: Sequence[Sequence[Value]], length: int
    ) -> dict[Key, list[int]]:
        if not columns or length < _MIN_VECTOR_ROWS:
            return super().group_by_hash(columns, length)
        arrays = [self._as_numeric(column) for column in columns]
        if any(array is None for array in arrays) or length == 0:
            return super().group_by_hash(columns, length)
        if len(arrays) == 1:
            order = np.argsort(arrays[0], kind="stable")
            sorted_columns = [arrays[0][order]]
        else:
            # lexsort's last key is primary; stable, so equal keys keep row order.
            order = np.lexsort(tuple(reversed(arrays)))
            sorted_columns = [array[order] for array in arrays]
        boundary = np.zeros(length - 1, dtype=bool)
        # repro-analysis: allow RPR001 -- bounded by key arity; whole-array ops inside, checkpoints live at call sites
        for column in sorted_columns:
            boundary |= column[1:] != column[:-1]
        starts = np.concatenate(([0], np.flatnonzero(boundary) + 1))
        ends = np.concatenate((starts[1:], [length]))
        order_list = order.tolist()
        key_columns = [column[starts].tolist() for column in sorted_columns]
        grouped = [
            (order_list[start], tuple(parts), order_list[start:end])
            for start, end, parts in zip(starts.tolist(), ends.tolist(), zip(*key_columns))
        ]
        # Stable argsort makes in-group positions ascending; re-keying by each
        # group's first position restores first-occurrence dict order.
        grouped.sort()
        return {key: positions for _, key, positions in grouped}

    def prefix_sum(self, values: Sequence[Value]) -> list[Value]:
        if len(values) < _MIN_VECTOR_ROWS:
            return super().prefix_sum(values)
        array = self._as_numeric(values)
        if array is None:
            return super().prefix_sum(values)
        if array.dtype.kind in "iub":
            exact = self._as_exact_int(array)
            if exact is None:
                return super().prefix_sum(values)
            return self._wrap(np.cumsum(exact))
        return self._wrap(np.cumsum(array))

    def masked_filter(self, mask: Sequence[Value]) -> list[int]:
        if len(mask) < _MIN_VECTOR_ROWS:
            return super().masked_filter(mask)
        array = self._as_numeric(mask)
        if array is None:
            return super().masked_filter(mask)
        return self._wrap(np.flatnonzero(array))

    def searchsorted(
        self, sorted_values: Sequence[Value], probes: Sequence[Value], side: str = "left"
    ) -> list[int]:
        if side not in ("left", "right") or len(probes) < _MIN_VECTOR_PROBES:
            return super().searchsorted(sorted_values, probes, side)
        haystack = self._as_numeric(sorted_values)
        needles = self._as_numeric(probes)
        if haystack is None or needles is None:
            return super().searchsorted(sorted_values, probes, side)
        return self._wrap(np.searchsorted(haystack, needles, side=side))

    def sum_by_group(
        self, group_ids: Sequence[int], values: Sequence[Value], num_groups: int
    ) -> list[Value]:
        if len(values) < _MIN_VECTOR_GROUP_ROWS:
            return super().sum_by_group(group_ids, values, num_groups)
        ids = self._as_numeric(group_ids)
        if ids is None or ids.dtype.kind not in "iu" or len(ids) != len(values):
            return super().sum_by_group(group_ids, values, num_groups)
        array = self._as_numeric(values)
        if array is None:
            return super().sum_by_group(group_ids, values, num_groups)
        if array.dtype.kind in "iub":
            exact = self._as_exact_int(array)
            if exact is None:
                return super().sum_by_group(group_ids, values, num_groups)
            bound = int(np.abs(exact).max()) * len(exact) if len(exact) else 0
            if bound <= _FLOAT_EXACT_BOUND:
                # Every partial sum stays below 2**53, so float64 bincount
                # accumulation is exact; it is far faster than np.add.at.
                sums = np.bincount(ids, weights=exact, minlength=num_groups)
                return self._wrap(sums.astype(np.int64))
            sums = np.zeros(num_groups, dtype=np.int64)
            np.add.at(sums, ids, exact)
            return self._wrap(sums)
        # bincount accumulates float weights in row order (sequential sum).
        return self._wrap(np.bincount(ids, weights=array, minlength=num_groups))

    def multiply(self, left: Sequence[Value], right: Sequence[Value]) -> list[Value]:
        if len(left) != len(right) or len(left) < _MIN_VECTOR_ROWS:
            return super().multiply(left, right)
        a = self._as_numeric(left)
        b = self._as_numeric(right)
        if a is None or b is None:
            return super().multiply(left, right)
        if a.dtype.kind in "iub" and b.dtype.kind in "iub":
            a = self._as_exact_int(a)
            b = self._as_exact_int(b)
            if a is None or b is None:
                return super().multiply(left, right)
        return self._wrap(a * b)
