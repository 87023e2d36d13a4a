"""The pivoting quantile algorithm (Algorithm 1, Sections 3 and 3.1).

Given an acyclic join query, a database, a ranking function, a requested
position, and a trimmer for the ranking's inequalities, the algorithm
repeatedly

1. selects a c-pivot among the current candidate answers (Section 4),
2. trims the less-than and greater-than partitions from the *original*
   database, restricted to the current candidate interval, and
3. counts the partitions to decide where the requested index falls,

until the index falls into the equal-to partition (the pivot is returned) or
the candidate set is small enough to materialize with the Yannakakis
algorithm and finish with plain selection.

With an exact trimmer the returned answer is an exact φ-quantile; with an
ε-lossy trimmer it is a (φ ± ε)-quantile (Lemmas 3.3 and 3.6).
"""

from __future__ import annotations

import math
from collections.abc import Collection, MutableMapping
from dataclasses import dataclass
from typing import Any, Protocol

from repro.data.database import Database
from repro.exceptions import EmptyResultError, SolverError, ValidationError
from repro.joins.counting import count_answers
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import SortedAnswers, evaluate_sorted
from repro.core.result import IterationStats, QuantileResult
from repro.pivot.pivot_selection import PivotResult, select_pivot
from repro.query.join_query import JoinQuery
from repro.query.predicates import WeightInterval
from repro.query.rewrite import ensure_canonical
from repro.ranking.base import RankingFunction
from repro.runtime import checkpoint
from repro.trim.base import Trimmer

Assignment = dict[str, Any]


class CappedCache(dict):
    """A dict that silently stops accepting new keys past a size limit.

    Bounds the memory held by the interval-keyed pivot and answer caches
    (serial and sharded) and the shard workers' candidate cache; existing
    entries keep being served, and overwriting an existing key is always
    allowed.  A limit of 0 (or less) stores nothing: the cache is off.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def __setitem__(self, key: Any, value: Any) -> None:
        if len(self) >= self.limit and key not in self:
            return
        super().__setitem__(key, value)


def check_phi(phi: float) -> None:
    """Raise :class:`ValidationError` unless ``phi`` is a number in ``[0, 1]``
    (a bool is never a number)."""
    if isinstance(phi, bool) or not isinstance(phi, (int, float)) or not 0.0 <= phi <= 1.0:
        raise ValidationError(f"phi must be a number in [0, 1], got {phi!r}")


def target_index_for(phi: float, total: int) -> int:
    """The 0-based index of the φ-quantile in a sorted list of ``total`` answers.

    Follows Algorithm 1 (line 4): ``⌊φ·|Q(D)|⌋``, clamped to ``[0, total−1]``.
    """
    check_phi(phi)
    if total <= 0:
        raise EmptyResultError("the query has no answers, so no quantile exists")
    return min(total - 1, max(0, int(math.floor(phi * total))))


def phi_for_index(index: int, total: int) -> float:
    """The φ value whose quantile is the answer at 0-based ``index``.

    Exact inverse of :func:`target_index_for`: for every valid index,
    ``target_index_for(phi_for_index(i, total), total) == i``.  The midpoint
    ``(i + ½)/total`` keeps ``φ·total`` half a unit away from the integer
    boundaries, so the ``⌊φ·total⌋`` rounding of the forward direction cannot
    drift to a neighbouring rank through floating-point error (``i/total``
    does: e.g. ``⌊(15/22)·22⌋ == 14``).
    """
    return (resolve_target(None, index, total) + 0.5) / total


def resolve_target(phi: float | None, index: int | None, total: int) -> int:
    """The 0-based target rank for a quantile (``phi``) or selection (``index``).

    The one place every strategy and entry point validates a request:
    exactly one of ``phi`` and ``index``, a non-empty join, a number in
    ``[0, 1]`` or an in-range ``int`` — so each failure raises the same typed
    error everywhere.
    """
    if (phi is None) == (index is None):
        raise ValidationError("exactly one of phi and index must be provided")
    if total <= 0:
        raise EmptyResultError("the query has no answers, so no quantile exists")
    if index is None:
        return target_index_for(phi, total)  # type: ignore[arg-type]
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < total:
        raise ValidationError(f"index must be an integer in [0, {total}), got {index!r}")
    return index


@dataclass
class PivotStep:
    """Memoized outcome of one pivoting iteration for a candidate interval.

    The pivoting loop is deterministic given the (canonical) base query,
    database, ranking, and trimmer: the same candidate interval always yields
    the same pivot, the same trimmed sub-databases, and the same partition
    counts.  A :class:`PreparedQuery` therefore shares a ``{interval:
    PivotStep}`` cache across φ values — repeated quantile queries reuse the
    expensive early iterations (which scan the full database) and only pay
    for the suffix of the search path where their target ranks diverge.

    ``lt`` and ``gt`` are the candidate handles of the two partitions; they
    mean something only to the :class:`CandidateSource` that produced them,
    so steps of different sources must never share a cache.
    """

    pivot_assignment: Assignment
    pivot_weight: Any
    pivot_c: float
    lt: Any
    count_lt: int
    gt: Any
    count_gt: int


class Terminal(Protocol):
    """The remaining candidates of one interval, sorted by weight (``len()``
    of them); what the answer cache holds and ``estimated_bytes`` charges."""

    def __len__(self) -> int: ...
    def estimated_bytes(self) -> int: ...
    def select(self, position: int) -> tuple[Any, Assignment]:
        """The (weight, assignment) at ``position``; the dict is the caller's."""


class CandidateSource(Protocol):
    """What Algorithm 1 needs to know about the candidate answers.

    A *handle* names the candidate set of one weight interval; the loop only
    carries handles from a :class:`PivotStep` back into the next call.
    """

    @property
    def total(self) -> int:
        """``|Q(D)|``."""

    @property
    def root(self) -> Any:
        """The handle of the unrestricted candidate set."""

    def step(self, interval: WeightInterval, handle: Any) -> PivotStep:
        """Pick a c-pivot among ``handle``'s candidates, trim and count the
        partitions strictly below and above it (within ``interval``)."""

    def terminal(
        self, interval: WeightInterval, handle: Any, keep: Collection[str]
    ) -> Terminal:
        """``handle``'s candidates in weight order, assignments over ``keep``."""


LocalHandle = tuple[JoinQuery, Database]


class LocalCandidates:
    """The in-process candidate source: trimmed (query, database) pairs.

    ``query``/``db`` are the canonical (usually semijoin-reduced) base.  A
    prepared query builds one per pivoting strategy and each shard worker
    one per shard, so this is the only caller of the trim, count, pivot
    selection, and terminal enumeration that pivoting is made of.
    """

    def __init__(
        self,
        query: JoinQuery,
        db: Database,
        ranking: RankingFunction,
        trimmer: Trimmer,
        tree_cache: TreeCache,
        total: int | None = None,
    ) -> None:
        self.query = query
        self.db = db
        self.ranking = ranking
        self.trimmer = trimmer
        self.tree_cache = tree_cache
        self.root: LocalHandle = (query, db)
        self.total = (
            count_answers(query, db, tree=tree_cache.get(query, db))
            if total is None
            else total
        )

    def candidate(self, interval: WeightInterval) -> tuple[LocalHandle, int]:
        """Trim the base to ``interval`` and count what is left.

        Trims always restart from the (canonical, possibly semijoin-reduced)
        base: re-applying a trimmer to its own output would compound the
        copy factors of the segment/partition constructions (and, for lossy
        trimmers, the answer loss).
        """
        trimmed = self.trimmer.trim_interval(self.query, self.db, interval)
        query, db = trimmed.query, trimmed.database
        return (query, db), count_answers(query, db, tree=self.tree_cache.get(query, db))

    def pivot(self, handle: LocalHandle) -> PivotResult:
        """A c-pivot among ``handle``'s candidates (Section 4)."""
        query, db = handle
        return select_pivot(query, db, self.ranking, tree=self.tree_cache.get(query, db))

    def step(self, interval: WeightInterval, handle: LocalHandle) -> PivotStep:
        pivot = self.pivot(handle)
        lt, count_lt = self.candidate(interval.with_high(pivot.weight, strict=True))
        gt, count_gt = self.candidate(interval.with_low(pivot.weight, strict=True))
        return PivotStep(
            pivot.assignment, pivot.weight, pivot.c, lt, count_lt, gt, count_gt
        )

    def terminal(
        self, interval: WeightInterval, handle: LocalHandle, keep: Collection[str]
    ) -> SortedAnswers:
        return evaluate_sorted(*handle, self.ranking, self.tree_cache.get(*handle), keep)


class CacheMiss(Exception):
    """A :class:`CachedOnly` replay reached a step or terminal nobody memoized."""


class CachedOnly:
    """``source``'s candidates, answered only from the caches: a replay.

    Run through :func:`run_pivoting` with a prepared query's step and answer
    caches, it walks the memoized steps and selects from a memoized terminal
    exactly as a warm call does, but it computes nothing: a step or terminal
    the caches lack raises :class:`CacheMiss` instead.
    """

    def __init__(self, source: LocalCandidates) -> None:
        self.query, self.db, self.trimmer = source.query, source.db, source.trimmer
        self.total, self.root = source.total, source.root

    def step(self, interval: WeightInterval, handle: LocalHandle) -> PivotStep:
        raise CacheMiss(interval)

    def terminal(
        self, interval: WeightInterval, handle: LocalHandle, keep: Collection[str]
    ) -> Terminal:
        raise CacheMiss(interval)


def run_pivoting(
    source: CandidateSource,
    phi: float | None,
    index: int | None,
    keep: Collection[str],
    termination_size: int,
    *,
    exact: bool = True,
    epsilon: float | None = None,
    step_cache: MutableMapping[WeightInterval, PivotStep] | None = None,
    answer_cache: MutableMapping[WeightInterval, Terminal] | None = None,
) -> QuantileResult:
    """Algorithm 1 over a candidate source: the one pivoting loop.

    Serial execution runs it over a :class:`LocalCandidates`, sharded
    execution over a :class:`~repro.parallel.merger.RankMerger`; see
    :func:`pivoting_quantile` for the parameters.  ``keep`` is the set of
    variables the returned assignment is projected to.
    """
    total = source.total
    target = resolve_target(phi, index, total)
    # Without a shared cache each call memoizes into its own throwaway dict.
    if step_cache is None:
        step_cache = {}
    if answer_cache is None:
        answer_cache = {}

    interval = WeightInterval()
    handle = source.root
    current_count = total
    remaining_index = target
    stats: list[IterationStats] = []
    iteration_cap = 0

    while current_count > termination_size:
        checkpoint("quantile.iteration")
        step = step_cache.get(interval)
        if step is None:
            step = step_cache[interval] = source.step(interval, handle)
        if iteration_cap == 0:
            # Derive a generous cap from the guaranteed elimination fraction.
            c = max(step.pivot_c, 1e-3)
            iteration_cap = int(math.ceil(math.log(max(total, 2)) / -math.log(1 - c))) + 20
        if len(stats) >= iteration_cap:
            raise SolverError(
                f"pivoting did not converge within {iteration_cap} iterations; "
                "this indicates an inconsistent trimmer"
            )
        count_lt, count_gt = step.count_lt, step.count_gt
        count_eq = max(0, current_count - count_lt - count_gt)

        if remaining_index < count_lt:
            chosen = "lt"
            interval = interval.with_high(step.pivot_weight, strict=True)
            handle, current_count = step.lt, count_lt
        elif remaining_index < count_lt + count_eq:
            chosen = "eq"
        else:
            chosen = "gt"
            remaining_index -= count_lt + count_eq
            interval = interval.with_low(step.pivot_weight, strict=True)
            handle, current_count = step.gt, count_gt
        stats.append(
            IterationStats(
                pivot_weight=step.pivot_weight,
                c=step.pivot_c,
                count_lt=count_lt,
                count_eq=count_eq,
                count_gt=count_gt,
                candidate_count=count_eq if chosen == "eq" else current_count,
                chosen=chosen,
            )
        )
        if chosen == "eq" or current_count == 0:
            # An emptied branch can happen with lossy trims (all candidates
            # lost) or when the remaining candidates all share the pivot
            # weight; fall back to returning the pivot, whose position error
            # is already bounded.
            assignment = project(step.pivot_assignment, keep)
            weight = step.pivot_weight
            break
    else:
        # Sort the remaining candidates and finish with plain selection; the
        # terminal of an interval is shared across calls through answer_cache
        # (targets landing in one interval pay the enumerate-and-sort once).
        answers = answer_cache.get(interval)
        if answers is None:
            answers = source.terminal(interval, handle, keep)
            if not len(answers):
                raise SolverError("no candidate answers remained to materialize")
            answer_cache[interval] = answers
        weight, assignment = answers.select(min(remaining_index, len(answers) - 1))
    return QuantileResult(
        assignment=assignment,
        weight=weight,
        target_index=target,
        total_answers=total,
        strategy="exact-pivot" if exact else "approx-pivot",
        exact=exact,
        epsilon=epsilon,
        iterations=len(stats),
        stats=tuple(stats),
    )


def pivoting_quantile(
    query: JoinQuery,
    db: Database,
    ranking: RankingFunction,
    trimmer: Trimmer,
    phi: float | None = None,
    index: int | None = None,
    epsilon: float | None = None,
    termination_size: int | None = None,
    pivot_cache: MutableMapping[WeightInterval, PivotStep] | None = None,
    answer_cache: MutableMapping[WeightInterval, Terminal] | None = None,
    tree_cache: TreeCache | None = None,
    source: LocalCandidates | CachedOnly | None = None,
) -> QuantileResult:
    """Run Algorithm 1 and return the requested (approximate) quantile.

    Exactly one of ``phi`` (relative position) and ``index`` (absolute 0-based
    position, the *selection problem*) must be given.

    Parameters
    ----------
    trimmer:
        The trimming construction for the ranking's inequalities; its
        ``lossy`` flag decides whether the result is exact.
    epsilon:
        Reported approximation parameter (for lossy trimmers).
    termination_size:
        Materialize-and-select once at most this many candidates remain
        (default: the database size, as in Algorithm 1).
    pivot_cache:
        Mutable mapping from candidate interval to :class:`PivotStep`, shared
        across calls with the same (query, db, ranking, trimmer) to amortize
        pivot selection, trimming, and counting over repeated φ values.
    answer_cache:
        Mutable mapping from terminal candidate interval to its weight-sorted
        answers (already projected to the query's variables), sharing the
        final sort-and-select step across calls that end in one interval.
    tree_cache:
        Shared :class:`~repro.joins.tree_cache.TreeCache` so pivot
        selection, partition counting, and terminal materialization reuse
        one materialized tree per (query, database) pair instead of each
        rebuilding it.
    source:
        A prebuilt :class:`LocalCandidates` over this very (canonical
        query, db, ranking, trimmer), which then supplies ``total`` and
        ``tree_cache`` — a prepared query builds it once instead of
        validating, canonicalizing, and counting on every call — or a
        :class:`CachedOnly` replay of one.
    """
    if source is None:
        ranking.validate_for(query.variables)
        base_query, base_db = ensure_canonical(query, db)
        if tree_cache is None:
            # Even a one-shot call profits: the tree of each candidate pair is
            # shared between its counting pass and the next pivot selection.
            tree_cache = TreeCache()
        source = LocalCandidates(base_query, base_db, ranking, trimmer, tree_cache)
    if termination_size is None:
        termination_size = max(source.db.size, 1)
    return run_pivoting(
        source,
        phi,
        index,
        set(query.variables),
        termination_size,
        exact=not source.trimmer.lossy,
        epsilon=epsilon,
        step_cache=pivot_cache,
        answer_cache=answer_cache,
    )


def project(assignment: Assignment, variables: Collection[str]) -> Assignment:
    """Drop helper variables introduced by canonicalization or trimming."""
    return {
        variable: value for variable, value in assignment.items() if variable in variables
    }
