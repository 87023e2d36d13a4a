"""Concurrent cache safety under fault injection (PR 7, satellite 3).

Readers hammer the shared caches — :class:`TreeCache`,
:class:`IndexCatalog`, and a whole :class:`PreparedQuery` — while builds
fail mid-flight through the deterministic fault hook.  The invariant in
every scenario: a reader either gets the injected fault (when the fault
fires on its own thread) or a **fully consistent answer**; nobody ever
observes a half-built tree, a partial key set, or a wrong result, and after
the faults stop everything still answers correctly.

The fault hook is process-wide, so these tests arm checkpoints that only
the hammered code paths reach and always restore the hook (via
``inject_faults`` / ``finally``).  Workers synchronize on a barrier before
touching the cache, so every thread observes the empty cache and the armed
occurrences deterministically cover concurrent builds.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.data.relation import Relation
from repro.engine import Engine
from repro.joins.counting import count_from_tree
from repro.joins.tree_cache import TreeCache
from repro.query.join_query import JoinQuery
from repro.runtime.context import set_fault_hook
from repro.testing import FaultPlan, InjectedFault, inject_faults
from repro.workloads.path import path_workload

pytestmark = pytest.mark.faults

QUERY_SPEC = "R1(x1,x2), R2(x2,x3), R3(x3,x4)"
RANKING_SPEC = "sum(x1, x2)"


def hammer(threads_count, worker):
    """Run ``worker(position)`` on N threads; re-raise the first failure."""
    failures = []

    def wrapped(position):
        try:
            worker(position)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            failures.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(threads_count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


class BlockingFaultGate:
    """Fault hook that guarantees truly concurrent builds, then faults one.

    The first thread to reach the gated checkpoint blocks until ``expected``
    threads have arrived — proving the cache let them all enter the build
    path concurrently — and then raises :class:`InjectedFault` on that first
    thread; everyone else proceeds to build.  This sidesteps GIL scheduling:
    no timing assumption, the interleaving is forced.
    """

    def __init__(self, name: str, expected: int) -> None:
        self.name = name
        self.expected = expected
        self._condition = threading.Condition()
        self._arrived = 0
        self.faulted = 0

    def __call__(self, name: str) -> None:
        if name != self.name:
            return
        with self._condition:
            self._arrived += 1
            first = self._arrived == 1
            self._condition.notify_all()
            if first:
                deadline_ok = self._condition.wait_for(
                    lambda: self._arrived >= self.expected, timeout=10.0
                )
                assert deadline_ok, "peer builders never reached the checkpoint"
                self.faulted += 1
                raise InjectedFault(name, 1)


class TestTreeCacheUnderConcurrentFaults:
    def test_faulted_builds_never_publish_partial_trees(self):
        workload = path_workload(3, 40, 6, seed=3)
        query = JoinQuery.parse(QUERY_SPEC)
        cache = TreeCache(limit=4)
        reference = cache.get(query, workload.db)
        expected_rows = reference.total_rows()
        expected_count = count_from_tree(reference)
        cache.clear()

        # The gate holds the first builder at the build checkpoint until a
        # second builder arrives (so two builds are provably concurrent),
        # then faults the first mid-flight; the rest build to completion.
        gate = BlockingFaultGate("tree_cache.build", expected=2)
        barrier = threading.Barrier(8)
        trees = []
        faults = []
        lock = threading.Lock()

        def worker(_position):
            barrier.wait()
            try:
                tree = cache.get(query, workload.db)
            except InjectedFault as fault:
                with lock:
                    faults.append(fault)
                return
            with lock:
                trees.append(tree)

        set_fault_hook(gate)
        try:
            hammer(8, worker)
        finally:
            set_fault_hook(None)

        assert len(faults) == 1, "the gated first builder should have faulted"
        assert gate.faulted == 1
        assert trees, "expected successful readers besides the faulted one"
        # Every successful reader got a complete tree — full materialized row
        # count and the exact answer count, never a partially built node set.
        for tree in trees:
            assert tree.total_rows() == expected_rows
            assert count_from_tree(tree) == expected_count
        # The cache itself holds exactly one published, fully built entry.
        assert len(cache) == 1
        final = cache.get(query, workload.db)
        assert count_from_tree(final) == expected_count

    def test_concurrent_builders_converge_on_single_entry(self):
        workload = path_workload(3, 40, 6, seed=4)
        query = JoinQuery.parse(QUERY_SPEC)
        cache = TreeCache(limit=4)
        barrier = threading.Barrier(8)
        trees = []
        lock = threading.Lock()

        def worker(_position):
            barrier.wait()
            tree = cache.get(query, workload.db)
            with lock:
                trees.append(tree)

        hammer(8, worker)
        assert len(cache) == 1
        # Whoever published first won; later readers share that one tree.
        final = cache.get(query, workload.db)
        assert sum(1 for tree in trees if tree is final) >= 1


class TestIndexCatalogUnderConcurrentFaults:
    def test_faulted_index_build_leaves_no_partial_state(self):
        rows = [(value % 7, value % 5) for value in range(200)]
        reference = set(Relation("R", ("a", "b"), rows).indexes.key_set(("a",)))
        relation = Relation("R", ("a", "b"), rows)  # fresh, empty catalog

        gate = BlockingFaultGate("index.keys", expected=2)
        barrier = threading.Barrier(8)
        key_sets = []
        faults = []
        lock = threading.Lock()

        def worker(_position):
            barrier.wait()
            try:
                keys = relation.indexes.key_set(("a",))
            except InjectedFault as fault:
                with lock:
                    faults.append(fault)
                return
            with lock:
                key_sets.append(keys)

        set_fault_hook(gate)
        try:
            hammer(8, worker)
        finally:
            set_fault_hook(None)

        assert len(faults) == 1
        assert key_sets, "expected successful readers"
        for keys in key_sets:
            assert keys == reference  # complete, never partial
        # All successful readers converged on one published structure.
        assert len({id(keys) for keys in key_sets}) == 1
        assert relation.indexes.key_set(("a",)) == reference

    def test_concurrent_key_set_builders_share_one_set(self):
        rows = [((value * 7919) % 101, value % 13) for value in range(300)]
        reference = set(Relation("R", ("w", "v"), rows).indexes.key_set(("w", "v")))
        relation = Relation("R", ("w", "v"), rows)  # fresh, empty catalog
        barrier = threading.Barrier(8)
        key_sets = []
        lock = threading.Lock()

        def worker(_position):
            barrier.wait()
            keys = relation.indexes.key_set(("w", "v"))
            with lock:
                key_sets.append(keys)

        hammer(8, worker)
        assert all(keys == reference for keys in key_sets)
        assert len({id(keys) for keys in key_sets}) == 1


class TestPreparedQueryUnderConcurrentFaults:
    def test_concurrent_quantiles_with_faulted_rebuilds_stay_correct(self):
        workload = path_workload(3, 40, 6, seed=8)
        engine = Engine(workload.db)
        prepared = engine.prepare(QUERY_SPEC, RANKING_SPEC)
        phis = [0.1, 0.25, 0.5, 0.75, 0.9]
        expected = {phi: prepared.quantile(phi).weight for phi in phis}

        # A second prepared query re-runs every lazy build from scratch (its
        # trees are built by the eager prepare, its row sums and sorted groups
        # on the first count): faults hit those builds while ten threads race.
        fresh = engine.prepare(QUERY_SPEC, RANKING_SPEC, seed=99)
        plan = FaultPlan().arm("cover.row_sums").arm("bisection.groups")
        barrier = threading.Barrier(10)
        outcomes = {}
        lock = threading.Lock()

        def worker(position):
            barrier.wait()
            phi = phis[position % len(phis)]
            try:
                weight = fresh.quantile(phi).weight
            except InjectedFault:
                weight = "faulted"
            with lock:
                outcomes.setdefault(phi, []).append(weight)

        # strict=False: whether each armed occurrence is reached depends on
        # thread interleaving (the ensures serialize under the state lock).
        with inject_faults(plan, strict=False):
            hammer(10, worker)

        for phi, weights in outcomes.items():
            for weight in weights:
                assert weight in ("faulted", expected[phi]), (
                    f"phi={phi}: inconsistent weight {weight!r} "
                    f"(expected {expected[phi]!r} or a clean fault)"
                )
        # Both builds are reached once the other's fault has passed: each fault
        # reaches exactly one worker.
        assert sorted(name for name, _ in plan.fired) == ["bisection.groups", "cover.row_sums"]
        faulted = sum(weight == "faulted" for weights in outcomes.values() for weight in weights)
        assert faulted == len(plan.fired)
        # After the fault window closes every φ answers exactly right.
        for phi in phis:
            assert fresh.quantile(phi).weight == expected[phi]

    @pytest.mark.parametrize("ranking", ["max(x1, x4)", "lex(x4, x2, x1)"])
    def test_concurrent_bisection_probes_with_faults_stay_correct(self, ranking):
        # MIN/MAX/LEX memoize probes and tie answers on one shared source:
        # ten threads race the same probes while some of them fault.
        workload = path_workload(3, 40, 6, seed=8)
        engine = Engine(workload.db)
        reference = engine.prepare(QUERY_SPEC, ranking, termination_factor=1)
        phis = [0.1, 0.25, 0.5, 0.75, 0.9]
        expected = {phi: reference.quantile(phi).weight for phi in phis}
        fresh = engine.prepare(QUERY_SPEC, ranking, termination_factor=1, seed=99)
        plan = (
            FaultPlan()
            .arm("bisection.count", after=5)
            .arm("bisection.witness", after=2)
        )
        barrier = threading.Barrier(10)
        outcomes = []
        lock = threading.Lock()

        def worker(position):
            barrier.wait()
            phi = phis[position % len(phis)]
            try:
                weight = fresh.quantile(phi).weight
            except InjectedFault:
                weight = "faulted"
            with lock:
                outcomes.append((phi, weight))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with inject_faults(plan, strict=False):
                hammer(10, worker)
        finally:
            sys.setswitchinterval(interval)
        assert all(weight in ("faulted", expected[phi]) for phi, weight in outcomes)
        # A count and a tie's witness walk each faulted one worker.
        assert sorted(name for name, _ in plan.fired) == ["bisection.count", "bisection.witness"]
        for phi in phis:
            assert fresh.quantile(phi).weight == expected[phi]
        source, check = (pq._ensure_source("exact-pivot") for pq in (fresh, reference))
        assert all(
            entry == (check.below(path), check._below[path][1]) for path, entry in source._below.items()
        )
