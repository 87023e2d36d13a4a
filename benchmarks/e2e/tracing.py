"""Per-layer spans recorded from outside the program.

``install()`` wraps the public functions each layer exposes (no file under
``src/`` changes; in-program spans are a later change) so that every call
records a span ``(name, start, end, parent, qid)``.  ``qid`` is one id per
quantile call (``pivoting_quantile`` serial, ``RankMerger.solve`` sharded).
Three very hot call sites — the 8 kernel ops, ``weighted_median`` — are
counted (and, for kernels, timed) without a span each, so a batch costs a
few thousand spans, not a few hundred thousand.

A layer's ``*_s`` metric is the **self time** of its spans: duration minus
the part covered by child spans.  Self times partition the root span exactly,
which is what lets the per-layer numbers be added up against ``batch_s``.
``kernels.busy_s`` is the exception: kernel calls happen *inside* the other
layers' spans and are reported as an overlay, not a summand.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

KERNEL_OPS = (
    "take", "argsort", "group_by_hash", "prefix_sum",
    "masked_filter", "searchsorted", "sum_by_group", "multiply",
)

#: Span name of one quantile call; its self time is ``core.self_s``.
QUANTILE_SPAN = "core.quantile"


class Recorder:
    """In-memory span list plus plain counters; written out when a pass ends."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: ``[name, start, end, parent index or -1, qid or -1]`` per span.
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Result of the latest ``full_reduce`` call (see ``install``).
        self.reduced_db: Any = None
        self._local = threading.local()
        self._qids = 0
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------- #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def begin(self, name: str, new_qid: bool = False) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if new_qid:
            with self._lock:
                self._qids += 1
                qid = self._qids
        else:
            qid = self.spans[parent][4] if parent >= 0 else -1
        span = [name, time.perf_counter() - self.origin, None, parent, qid]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter() - self.origin
        self._stack().pop()

    def discard(self, index: int) -> None:
        """Close a span and mark it as not to be reported (zero length)."""
        self.spans[index][2] = self.spans[index][1]
        self.spans[index][0] = ""
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def dump(self, path: Any) -> None:
        """Write every span and counter as JSON (what a traced pass leaves)."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)

    # -- wrapping ------------------------------------------------------- #
    def wrap(self, fn: Callable, name: str, new_qid: bool = False) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name, new_qid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced


def self_times(
    spans: list[list[Any]], start: int = 0, stop: int | None = None
) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name over ``spans[start:stop]``: summed self time and calls.

    A span nested directly inside a span of the same name (``count_answers``
    calling ``count_from_tree``) adds its time but is not a separate call;
    discarded spans have zero length and no name, so they are skipped.
    """
    stop = len(spans) if stop is None else stop
    child_time: dict[int, float] = defaultdict(float)
    for index in range(start, stop):
        _, begun, ended, parent, _ = spans[index]
        if parent >= 0:
            child_time[parent] += ended - begun
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index in range(start, stop):
        name, begun, ended, parent, _ = spans[index]
        if not name:
            continue
        busy[name] += (ended - begun) - child_time.get(index, 0.0)
        if parent < 0 or spans[parent][0] != name:
            calls[name] += 1
    return dict(busy), dict(calls)


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro`` module attribute that *is* ``original``.

    Callers did ``from x import f``, so patching ``x.f`` alone would miss
    them; the identity scan finds each imported alias.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points in this process (irreversible)."""
    import repro.engine  # noqa: F401 - pulls every layer in before patching
    from repro.core.quantile import pivoting_quantile
    from repro.joins.counting import count_answers, count_from_tree
    from repro.joins.tree_cache import TreeCache
    from repro.joins.yannakakis import evaluate, full_reduce
    from repro.kernels import active_backend
    from repro.parallel.merger import ParallelSession, RankMerger
    from repro.parallel.planner import ShardPlanner
    from repro.pivot import select_pivot, weighted_median as median
    from repro.query.rewrite import ensure_canonical
    from repro.trim.base import Trimmer

    functions = (
        (ensure_canonical, "query.canonicalize", False),
        (count_answers, "joins.count", False),
        (count_from_tree, "joins.count", False),
        (select_pivot, "pivot.select", False),
        (pivoting_quantile, QUANTILE_SPAN, True),
    )
    for fn, name, new_qid in functions:
        _replace_everywhere(fn, recorder.wrap(fn, name, new_qid))

    # The semijoin-reduced database is where the engine's IndexCatalog
    # traffic lands (the base relations' catalogs are never consulted), and
    # this return value is the only public way to reach it.
    def traced_reduce(*args: Any, **kwargs: Any) -> Any:
        with recorder.span("joins.full_reduce"):
            recorder.reduced_db = full_reduce(*args, **kwargs)
        return recorder.reduced_db

    _replace_everywhere(full_reduce, traced_reduce)

    def traced_evaluate(*args: Any, **kwargs: Any) -> Any:
        index = recorder.begin("joins.evaluate")
        try:
            answers = evaluate(*args, **kwargs)
            recorder.counters["joins.evaluate_answers"] += len(answers)
            return answers
        finally:
            recorder.end(index)

    _replace_everywhere(evaluate, traced_evaluate)

    def counted_median(*args: Any, **kwargs: Any) -> Any:
        recorder.counters["pivot.weighted_median_calls"] += 1
        return median(*args, **kwargs)

    _replace_everywhere(median, counted_median)

    # A tree-cache lookup is a span only when it built a tree (a miss).
    cache_get = TreeCache.get

    def traced_get(self: Any, *args: Any, **kwargs: Any) -> Any:
        misses = self.misses
        index = recorder.begin("joins.tree_build")
        try:
            return cache_get(self, *args, **kwargs)
        finally:
            if self.misses == misses:
                recorder.discard(index)
            else:
                recorder.end(index)

    TreeCache.get = traced_get  # type: ignore[method-assign]

    for cls in [Trimmer, *_all_subclasses(Trimmer)]:
        if "trim_interval" in vars(cls):
            cls.trim_interval = recorder.wrap(vars(cls)["trim_interval"], "trim.interval")

    make_plan = ShardPlanner.plan

    def traced_plan(*args: Any, **kwargs: Any) -> Any:
        with recorder.span("parallel.plan"):
            plan = make_plan(*args, **kwargs)
        recorder.counters["parallel.shipped_rows"] += plan.total_rows
        return plan

    ShardPlanner.plan = traced_plan  # type: ignore[method-assign]
    ParallelSession.start = recorder.wrap(ParallelSession.start, "parallel.start")  # type: ignore[method-assign]
    RankMerger.solve = recorder.wrap(RankMerger.solve, QUANTILE_SPAN, True)  # type: ignore[method-assign]
    _install_fan_out(recorder, ParallelSession)
    _install_kernel_counters(recorder, active_backend())


def _all_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def _install_fan_out(recorder: Recorder, session_cls: type) -> None:
    """One span per coordinator fan-out; the ``init`` round inside
    ``ParallelSession.start`` is named apart so it counts as set-up."""
    import pickle

    fan_out = session_cls.fan_out

    def traced_fan_out(self: Any, tasks: Any) -> Any:
        tasks = list(tasks)
        in_start = recorder.parent_name() == "parallel.start"
        index = recorder.begin("parallel.start" if in_start else "parallel.round")
        try:
            payloads = fan_out(self, tasks)
        finally:
            recorder.end(index)
        if not in_start:
            if tasks[0][1] == "pivot":
                recorder.counters["parallel.pivot_rounds"] += 1
            # Sizing the results is instrumentation cost: its own span keeps
            # it out of the merger's self time.
            index = recorder.begin("trace.pickle")
            recorder.counters["parallel.result_bytes"] += len(pickle.dumps(payloads))
            recorder.end(index)
        return payloads

    session_cls.fan_out = traced_fan_out  # type: ignore[attr-defined]


def _install_kernel_counters(recorder: Recorder, backend: Any) -> None:
    """Count and time the 8 kernel ops on the active backend instance.

    A backend op may call another op of the same backend; only the outermost
    call is timed, so ``kernels.busy_s`` never counts an interval twice.
    """
    depth = threading.local()
    counters = recorder.counters
    clock = time.perf_counter

    def counted(op: Callable) -> Callable:
        def call(*args: Any, **kwargs: Any) -> Any:
            counters["kernels.calls"] += 1
            if getattr(depth, "n", 0):
                return op(*args, **kwargs)
            depth.n = 1
            started = clock()
            try:
                return op(*args, **kwargs)
            finally:
                counters["kernels.busy_s"] += clock() - started
                depth.n = 0

        return call

    for name in KERNEL_OPS:
        setattr(backend, name, counted(getattr(backend, name)))
