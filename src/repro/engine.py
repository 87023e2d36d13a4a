"""Prepared-query engine: pay query planning once, execute many times.

The paper's headline result is that a φ-quantile over an acyclic join costs
roughly the database size *after* a linear-time preprocessing pass.
:class:`Engine` and :class:`PreparedQuery` implement the classic
prepare-once/execute-many database pattern around it:

* :class:`Engine` owns a :class:`~repro.data.database.Database` and hands out
  prepared queries via :meth:`Engine.prepare` (memoizing them per
  (query, ranking, parameters) so repeated traffic shares preparation).
* :class:`PreparedQuery` computes once and caches the canonical rewrite, the
  rooted join tree, the Yannakakis semijoin-reduced database, the answer
  count ``|Q(D)|``, the strategy plan, and one candidate source per strategy
  (cover counting, key bisection, a lossy trimmer, sorted answers, or a
  held sample) — then exposes
  :meth:`~PreparedQuery.quantile`, batch :meth:`~PreparedQuery.quantiles`,
  :meth:`~PreparedQuery.selection`, :meth:`~PreparedQuery.median`, and
  :meth:`~PreparedQuery.count`.
* Every strategy but ``sampling`` runs Algorithm 1 over its source;
  ``materialize`` is the loop with zero pivot steps over all answers, sorted.
  ``sampling``'s source holds one uniform sample per prepared query, and a
  φ is a select on it.
  Across calls, a shared pivot cache memoizes the deterministic pivoting
  iterations per candidate interval, so a batch of φ values re-runs only the
  suffix of the search path where the target ranks diverge;
  :meth:`~PreparedQuery.cached` answers a call whose whole path is memoized
  without computing anything (the service does so on its event loop).

Quick start
-----------
>>> from repro import Engine
>>> engine = Engine(db)                                    # doctest: +SKIP
>>> pq = engine.prepare("R(x1, x2), S(x2, x3)", "sum(x1, x3)")  # doctest: +SKIP
>>> pq.quantiles([0.1, 0.25, 0.5, 0.75, 0.9])              # doctest: +SKIP
"""

from __future__ import annotations

import threading
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from typing import Any

from repro.approx.lossy_sum_trim import LossySumTrimmer
from repro.approx.randomized import SampledAnswers
from repro.baselines.materialize import MaterializedAnswers
from repro.core.quantile import (
    CacheMiss,
    CappedCache,
    CoverCounting,
    LocalCandidates,
    PreparedSource,
    WeightBisection,
    check_phi,
    pivoting_quantile,
    replay,
)
from repro.core.result import QuantileResult
from repro.data.database import Database
from repro.exceptions import (
    BudgetExceededError,
    CyclicQueryError,
    DegradedResultWarning,
    IntractableQueryError,
    RankingError,
    SolverError,
    TrimmingError,
    ValidationError,
    WorkerCrashError,
    WorkerPoolClosedError,
)
from repro.joins.counting import count_from_tree
from repro.joins.direct_access import DirectAccess
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import full_reduce
from repro.parallel.merger import ParallelSession, RankMerger
from repro.parallel.planner import ShardPlan, ShardPlanner, resolve_shard_count
from repro.query.classify import (
    SumClassification,
    classify_always_tractable,
    classify_sum,
    find_adjacent_cover,
)
from repro.query.join_query import JoinQuery
from repro.query.join_tree import RootedJoinTree, build_join_tree
from repro.query.parser import parse_ranking
from repro.query.rewrite import ensure_canonical
from repro.ranking.base import RankingFunction
from repro.ranking.lex import LexRanking
from repro.ranking.minmax import MaxRanking, MinRanking
from repro.ranking.sum import SumRanking
from repro.runtime import CancellationToken, ExecutionContext, checkpoint
from repro.runtime.context import check_limits
from repro.runtime.policy import degradation_ladder, validate_policy

#: Strategy identifiers accepted by the engine.
STRATEGIES = ("auto", "exact-pivot", "approx-pivot", "sampling", "materialize")

#: Cap on memoized pivoting iterations per prepared query and mode.
DEFAULT_PIVOT_CACHE_LIMIT = 256

#: Cap on memoized terminal answer columns per prepared query and mode.  Kept
#: much smaller than the pivot-cache limit: each entry holds columns of up
#: to ``termination_factor x |D|`` candidates, so this bound — not the pivot
#: cache's — dominates the engine's memory ceiling.
DEFAULT_ANSWER_CACHE_LIMIT = 32


@dataclass(frozen=True)
class SolverPlan:
    """The strategy the planner picked and why.

    Attributes
    ----------
    strategy:
        One of ``"exact-pivot"``, ``"approx-pivot"``, ``"sampling"``,
        ``"materialize"``.
    classification:
        The dichotomy classification of the (query, ranking) pair.
    reason:
        Human-readable explanation of the choice.
    """

    strategy: str
    classification: SumClassification
    reason: str


class PreparedQuery:
    """A (query, ranking) pair with all per-query preprocessing cached.

    Obtained from :meth:`Engine.prepare` (memoized per engine) or built
    directly.  Preparation runs the linear-time preprocessing of the paper
    exactly once — canonical rewrite, rooted join tree, Yannakakis full
    semijoin reduction, answer count, strategy plan, the plan's candidate
    source — and every subsequent :meth:`quantile`, :meth:`quantiles`,
    :meth:`selection`, :meth:`median`, or :meth:`count` call reuses it.  A
    pivot cache shared across calls additionally memoizes the deterministic
    pivoting iterations per candidate weight interval.

    Parameters
    ----------
    query, ranking:
        The join query and ranking function; both also accept the string
        specs of :meth:`JoinQuery.parse` / :func:`parse_ranking`
        (``"R(x1, x2), S(x2, x3)"``, ``"sum(x1, x3)"``).
    epsilon:
        Allowed position error, a number in ``(0, 1)``.  Required for
        conditionally intractable SUM queries (unless
        ``strategy="materialize"``); optional otherwise.
    strategy:
        ``"auto"`` (default) picks per the dichotomy; the other values force
        a specific algorithm.
    seed:
        Seed for the sampling strategy, an ``int`` or ``None``.  The sample
        is drawn once per prepared query (``None``: from fresh entropy) and
        redrawn only after :meth:`clear_pivot_cache`.
    termination_factor:
        The pivoting loop materializes-and-selects once at most
        ``termination_factor × |D|`` candidates remain (Algorithm 1 uses
        factor 1).  A larger factor trades memory — up to that many answers
        are materialized at the end — for fewer pivoting rounds, whose
        terminal sorted answers are then shared across φ values through the
        answer cache.  Results stay exact either way.
    timeout:
        Wall-clock budget in seconds per execution call; ``None`` (default)
        disables the deadline.
    max_rows:
        Per-execution budget on the total number of rows processed through
        runtime checkpoints — a deterministic proxy for work and memory.
    on_budget:
        What to do when a budget trips (see
        :data:`repro.runtime.policy.DEGRADATION_POLICIES`): ``"error"``
        (default) raises :class:`~repro.exceptions.BudgetExceededError`;
        ``"approx"``, ``"sampling"``, and ``"materialize"`` retry once with
        that strategy under a fresh budget; ``"degrade"`` walks the full
        ladder approx → sampling → materialize, skipping a rung the query
        cannot run (approx under MIN/MAX/LEX, either without ``epsilon``).
        Degraded results carry ``degraded=True`` and a
        :class:`~repro.exceptions.DegradedResultWarning` is issued.
    cancellation:
        Optional shared :class:`~repro.runtime.CancellationToken`; cancelling
        it aborts any in-flight execution at its next checkpoint.
        Cancellation is never degraded — it always propagates as
        :class:`~repro.exceptions.ExecutionCancelledError`.
    parallel:
        Shard the exact pivoting path of a SUM ranking across ``K`` worker
        processes (:mod:`repro.parallel`), each counting over the cover pair
        of its shard: a positive int is K, ``None`` (default) stays serial.
        Only a SUM whose weighted variables need two adjacent atoms shards
        under the ``exact-pivot`` strategy; a one-atom SUM, MIN, MAX and LEX,
        every other strategy and every degradation rung run serial, and
        :attr:`parallel_note` says why.  A sharded
        result has the serial path's weight, target index and total; its
        assignment may be another answer of the same tie block.  A crashed
        worker degrades the call to the serial algorithm with a degradation
        note instead of failing it.
    """

    def __init__(
        self,
        query: JoinQuery | str,
        db: Database,
        ranking: RankingFunction | str,
        epsilon: float | None = None,
        strategy: str = "auto",
        seed: int | None = None,
        termination_factor: int = 12,
        timeout: float | None = None,
        max_rows: int | None = None,
        on_budget: str = "error",
        cancellation: CancellationToken | None = None,
        parallel: int | None = None,
    ) -> None:
        if isinstance(query, str):
            query = JoinQuery.parse(query)
        if isinstance(ranking, str):
            ranking = parse_ranking(ranking)
        if strategy not in STRATEGIES:
            raise SolverError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        ranking.validate_for(query.variables)
        if epsilon is not None and not (
            isinstance(epsilon, (int, float))
            and not isinstance(epsilon, bool)
            and 0.0 < epsilon < 1.0
        ):
            raise ValidationError(f"epsilon must be a number in (0, 1), got {epsilon!r}")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ValidationError(f"seed must be an int or None, got {seed!r}")
        check_limits(
            timeout=timeout, max_rows=max_rows, termination_factor=termination_factor
        )
        validate_policy(on_budget)
        self.query = query
        self.db = db
        self.ranking = ranking
        self.epsilon = epsilon
        self.strategy = strategy
        self.seed = seed
        self.timeout = timeout
        self.max_rows = max_rows
        self.on_budget = on_budget
        self.cancellation = cancellation
        self.parallel = parallel
        self._shard_count = resolve_shard_count(parallel)
        self.termination_factor = termination_factor
        # Prepared state, each computed at most once per prepared query.
        self._plan: SolverPlan | None = None
        self._classification: SumClassification | None = None
        self._canonical: tuple[JoinQuery, Database] | None = None
        self._rooted_tree: RootedJoinTree | None = None
        self._reduced_db: Database | None = None
        self._total: int | None = None
        # Per-strategy state: degradation may run several strategies over
        # this prepared query's lifetime, each over its own candidate source
        # (the lossy trimmer of approx-pivot must never be confused with the
        # exact ones).
        self._sources: dict[str, PreparedSource | SampledAnswers] = {}
        # {mode: (step cache, answer cache)}, mode being a strategy with a
        # source or "sharded".  Both caches are keyed by candidate weight interval,
        # but entries are not interchangeable between modes: a lossy trim of
        # an interval drops answers an exact trim keeps, and a cached step's
        # candidate handles mean something only to the source that made them.
        self._caches: dict[str, tuple[CappedCache, CappedCache]] = {}
        # One materialized tree per (query, database) pair, shared by
        # counting, reduction, pivot selection, and terminal enumeration
        # across all executions of this prepared query.
        self._tree_cache = TreeCache()
        # Sharded parallel execution state (exact-pivot only): the shard
        # plan, the live worker session, and the rank merger are prepared
        # once and cached like everything else.  A non-None note records why
        # parallelism was permanently disabled for this prepared query.
        self._parallel_plan: ShardPlan | None = None
        self._parallel_session: ParallelSession | None = None
        self._parallel_merger: RankMerger | None = None
        self._parallel_note: str | None = None
        # Serializes the lazy ensure steps under concurrent executions (the
        # service shares one prepared query across callers): the first caller
        # builds, the rest wait and reuse, and no heavy preprocessing is ever
        # duplicated.  Reentrant because the ensures nest (reduced -> canonical
        # -> join tree).
        self._state_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def prepare(self) -> "PreparedQuery":
        """Eagerly run all preprocessing the chosen strategy needs.

        Called by :meth:`Engine.prepare`; afterwards, execution methods do no
        per-query setup work.  Returns ``self`` for chaining.  Raises the
        same planning errors a lazy first execution would (e.g.
        :class:`IntractableQueryError` for an exact-intractable SUM query
        without ``epsilon``).

        Under budgets the eager pass runs inside its own execution context: a
        budget trip leaves the remaining preprocessing lazy (every ensure
        step is idempotent and publishes atomically), so the first execution
        call re-trips and applies the degradation policy there.  Cancellation
        propagates.
        """
        if not self._has_guards():
            self._prepare_all()
            return self
        try:
            with self._fresh_context():
                self._prepare_all()
        except BudgetExceededError:
            pass
        return self

    def _prepare_all(self) -> None:
        plan = self.plan()
        self._ensure_source(plan.strategy)
        if plan.strategy == "exact-pivot":
            self._ensure_parallel()

    def classification(self) -> SumClassification:
        """Dichotomy classification of the (query, ranking) pair (cached)."""
        if self._classification is None:
            with self._state_lock:
                if self._classification is None:
                    if isinstance(self.ranking, SumRanking):
                        self._classification = classify_sum(
                            self.query, frozenset(self.ranking.weighted_variables)
                        )
                    else:
                        self._classification = classify_always_tractable(self.query)
        return self._classification

    def plan(self) -> SolverPlan:
        """Decide (and cache) which algorithm to run."""
        if self._plan is not None:
            return self._plan
        with self._state_lock:
            if self._plan is not None:
                return self._plan
            classification = self.classification()
            if self.strategy != "auto":
                self._plan = SolverPlan(
                    self.strategy, classification, f"strategy forced to {self.strategy!r}"
                )
                return self._plan
            if classification.is_tractable:
                self._plan = SolverPlan(
                    "exact-pivot",
                    classification,
                    f"tractable: {classification.reason}",
                )
            elif self.epsilon is not None and isinstance(self.ranking, SumRanking):
                self._plan = SolverPlan(
                    "approx-pivot",
                    classification,
                    "conditionally intractable for exact evaluation "
                    f"({classification.reason}); using the deterministic "
                    f"epsilon-approximation with epsilon={self.epsilon}",
                )
            else:
                raise IntractableQueryError(
                    "exact quantile evaluation is conditionally intractable: "
                    f"{classification.reason}. Provide epsilon= for an approximate "
                    "answer, or force strategy='materialize' / 'sampling'."
                )
            return self._plan

    def join_tree(self) -> RootedJoinTree:
        """The rooted join tree of the canonical query (cached)."""
        if self._rooted_tree is None:
            with self._state_lock:
                if self._rooted_tree is None:
                    canonical_query, _ = self._ensure_canonical()
                    self._rooted_tree = build_join_tree(canonical_query).rooted()
        return self._rooted_tree

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def count(self) -> int:
        """Number of answers ``|Q(D)|`` (computed once, then cached); under
        ``materialize``, also of a cyclic query (its sorted answers)."""
        try:
            return self._ensure_total()
        except CyclicQueryError:
            if self.strategy != "materialize":
                raise
            return self._ensure_source("materialize").total

    def quantile(self, phi: float) -> QuantileResult:
        """Return the φ-quantile of the query answers."""
        return self._solve(phi=phi)

    def quantiles(self, phis: Iterable[float]) -> list[QuantileResult]:
        """Batch φ-quantiles, reusing the prepared state across all values.

        Equivalent to ``[pq.quantile(phi) for phi in phis]`` (results are
        returned in input order) but intended for repeated traffic: all
        values share the prepared structures and the pivot cache, so common
        prefixes of the pivoting search are executed once.
        """
        phis = list(phis)
        for phi in phis:
            check_phi(phi)
        return [self._solve(phi=float(phi)) for phi in phis]

    def selection(self, index: int) -> QuantileResult:
        """Return the answer at absolute 0-based ``index`` (selection problem)."""
        return self._solve(index=index)

    def median(self) -> QuantileResult:
        """The 0.5-quantile (convenience)."""
        return self.quantile(0.5)

    # ------------------------------------------------------------------ #
    # Cached state helpers
    # ------------------------------------------------------------------ #
    def _ensure_canonical(self) -> tuple[JoinQuery, Database]:
        canonical = self._canonical
        if canonical is None:
            with self._state_lock:
                canonical = self._canonical
                if canonical is None:
                    canonical = ensure_canonical(self.query, self.db)
                    self._canonical = canonical
        return canonical

    def _ensure_reduced(self) -> tuple[JoinQuery, Database]:
        """Canonical query over the fully semijoin-reduced database."""
        canonical_query, canonical_db = self._ensure_canonical()
        reduced = self._reduced_db
        if reduced is None:
            with self._state_lock:
                reduced = self._reduced_db
                if reduced is None:
                    tree = self._tree_cache.get(
                        canonical_query, canonical_db, rooted=self.join_tree()
                    )
                    reduced = full_reduce(canonical_query, canonical_db, tree=tree)
                    self._reduced_db = reduced
        return canonical_query, reduced

    def _ensure_total(self) -> int:
        total = self._total
        if total is None:
            with self._state_lock:
                total = self._total
                if total is None:
                    canonical_query, canonical_db = self._ensure_canonical()
                    db = (
                        self._reduced_db
                        if self._reduced_db is not None
                        else canonical_db
                    )
                    tree = self._tree_cache.get(
                        canonical_query, db, rooted=self.join_tree()
                    )
                    total = count_from_tree(tree)
                    self._total = total
        return total

    def _ensure_source(self, strategy: str) -> PreparedSource | SampledAnswers:
        """The source of one strategy, built once: the sorted answers of the
        original (possibly cyclic) query, sampling's sample of the canonical
        join, or the reduced base, ``|Q(D)|``, tree cache and exact SUM's
        cover / approx-pivot's trimmer.  A strategy invalid for this query
        raises before it reduces, counts or draws."""
        source = self._sources.get(strategy)
        if source is None:
            with self._state_lock:
                source = self._sources.get(strategy)
                if source is None:
                    source = self._sources[strategy] = self._build_source(strategy)
        return source

    def _build_source(self, strategy: str) -> PreparedSource | SampledAnswers:
        if strategy == "materialize":
            return MaterializedAnswers(self.query, self.db, self.ranking)
        if strategy == "sampling":
            if self.epsilon is None:
                raise SolverError("the sampling strategy requires epsilon")
            canonical = self._ensure_canonical()
            access = DirectAccess(*canonical, tree=self._tree_cache.get(*canonical))
            return SampledAnswers(
                access, self.ranking, self.epsilon, self.seed, self.query.variables
            )
        ranking, is_sum = self.ranking, isinstance(self.ranking, SumRanking)
        if strategy == "approx-pivot":
            if self.epsilon is None:
                raise SolverError("the approx-pivot strategy requires epsilon")
            if not is_sum:
                raise SolverError("the approx-pivot strategy only applies to SUM rankings")
            trimmer = LossySumTrimmer(ranking, epsilon=self.epsilon / 4.0)
            base, total = self._ensure_reduced(), self._ensure_total()
            return LocalCandidates(*base, ranking, trimmer, self._tree_cache, total)
        if not isinstance(ranking, (SumRanking, MinRanking, MaxRanking, LexRanking)):
            raise RankingError(f"no exact trimming construction is known for {ranking.describe()}")
        # SUM: the one or two adjacent nodes holding every weighted variable.
        weighted = frozenset(ranking.weighted_variables)
        cover = find_adjacent_cover(self._ensure_canonical()[0], weighted) if is_sum else None
        if is_sum and cover is None:
            raise IntractableQueryError(
                "exact-pivot was forced but the SUM query is conditionally "
                f"intractable: {self.classification().reason}"
            )
        base, total = self._ensure_reduced(), self._ensure_total()
        if cover is not None and len(cover[1]) == 2:
            return CoverCounting(*base, ranking, self._tree_cache, total, cover)
        return WeightBisection(*base, ranking, self._tree_cache, total, cover and cover[1][0])

    def _mode_caches(self, mode: str) -> tuple[CappedCache, CappedCache]:
        """The (step, answer) caches of one mode (created on first use)."""
        caches = self._caches.get(mode)
        if caches is None:
            fresh = CappedCache(DEFAULT_PIVOT_CACHE_LIMIT), CappedCache(DEFAULT_ANSWER_CACHE_LIMIT)
            with self._state_lock:
                caches = self._caches.setdefault(mode, fresh)
        return caches

    # ------------------------------------------------------------------ #
    # Sharded parallel execution (exact-pivot only)
    # ------------------------------------------------------------------ #
    def _ensure_parallel(self) -> RankMerger | None:
        """The rank merger over live shard workers, or ``None`` for serial.

        Built at most once per prepared query: the shard plan partitions the
        semijoin-reduced base, a worker session ships/reduces/counts every
        shard, and the merger feeds the shared pivoting loop, which caches
        its rounds under the "sharded" mode.  A failure to start (worker crash,
        closed pool) permanently disables parallelism for this prepared
        query — recorded in ``_parallel_note`` — instead of failing the
        call.
        """
        if self._shard_count < 2 or self._parallel_note is not None:
            return self._parallel_merger
        if getattr(self.ranking, "_weights", None):
            # Custom weight callables cannot be shipped reliably to workers.
            self._parallel_note = "custom weight functions are not shardable"
            return None
        with self._state_lock:
            if self._parallel_merger is not None or self._parallel_note is not None:
                return self._parallel_merger
            if self.plan().strategy != "exact-pivot":
                self._parallel_note = (
                    f"strategy {self.plan().strategy!r} does not shard"
                )
                return None
            if not isinstance(self._ensure_source("exact-pivot"), CoverCounting):
                # Key bisection (MIN, MAX, LEX, one-node SUM) runs serial: its
                # shard-local key indices are not mergeable.
                self._parallel_note = f"ranking {self.ranking.describe()} does not shard"
                return None
            base_query, base_db = self._ensure_reduced()
            total = self._ensure_total()
            try:
                plan = ShardPlanner(self._shard_count).plan(base_query, base_db)
                session = ParallelSession(plan, self.ranking)
                session.start()
            except (WorkerCrashError, WorkerPoolClosedError) as exc:
                self._parallel_note = f"failed to start workers: {exc}"
                return None
            if session.total != total:
                # Defensive: a shard plan that loses or duplicates answers
                # must never silently change results.
                session.close()
                self._parallel_note = (
                    f"shard plan count mismatch ({session.total} != {total})"
                )
                return None
            self._parallel_plan = plan
            self._parallel_session = session
            self._parallel_merger = RankMerger(session)
            return self._parallel_merger

    def _disable_parallel(self, note: str) -> None:
        """Permanently fall back to serial execution (idempotent)."""
        with self._state_lock:
            session = self._parallel_session
            self._parallel_session = None
            self._parallel_merger = None
            self._parallel_plan = None
            # Sharded steps hold per-shard handles: useless without workers.
            self._caches.pop("sharded", None)
            if self._parallel_note is None:
                self._parallel_note = note
        if session is not None:
            session.close()

    def _try_parallel(
        self, phi: float | None, index: int | None
    ) -> QuantileResult | None:
        """Run one exact-pivot call on the shard workers, or ``None`` for serial.

        A crashed worker degrades the call to the serial path (re-executed
        immediately) with ``degraded=True`` and a
        :class:`~repro.exceptions.DegradedResultWarning`; an orderly pool
        shutdown (eviction, :meth:`close`) falls back silently — nothing was
        lost.
        """
        merger = self._ensure_parallel()
        if merger is None:
            return None
        termination_size = self.termination_factor * max(
            merger.session.reduced_rows, 1
        )
        keep = set(self.query.variables)
        try:
            return merger.solve(
                phi, index, keep, termination_size, *self._mode_caches("sharded")
            )
        except WorkerCrashError as crash:
            self._disable_parallel(f"worker crashed: {crash}")
            result = self._execute("exact-pivot", phi, index)
            note = f"parallel -> serial ({crash})"
            warnings.warn(DegradedResultWarning(note), stacklevel=5)
            return replace(result, degraded=True, degradation=note)
        except WorkerPoolClosedError as closed:
            self._disable_parallel(f"pool closed: {closed}")
            return None

    @property
    def shards(self) -> int | None:
        """Shard count of the live parallel session, or ``None`` if serial."""
        session = self._parallel_session
        if session is None or session.closed:
            return None
        return session.num_shards

    @property
    def parallel_note(self) -> str | None:
        """Why parallelism is disabled for this prepared query, if it is."""
        return self._parallel_note

    def close(self) -> None:
        """Release process-backed resources (the shard worker pool).

        Idempotent; the prepared query stays usable afterwards on the serial
        path.  Called by :meth:`Engine.evict` / :meth:`Engine.clear` so
        evicted queries never leak worker processes.
        """
        if self._parallel_session is not None:
            self._disable_parallel("prepared query closed")

    # ------------------------------------------------------------------ #
    # Strategy dispatch
    # ------------------------------------------------------------------ #
    def _has_guards(self) -> bool:
        """Whether any budget or cancellation token is configured."""
        return (
            self.timeout is not None
            or self.max_rows is not None
            or self.cancellation is not None
        )

    def _fresh_context(self) -> ExecutionContext:
        """A new execution context carrying this query's full budgets.

        Each execution call — and each degradation rung — gets a *fresh*
        deadline and row budget, so a single-rung ``on_budget`` policy is
        bounded by roughly twice the configured budget in total.
        """
        return ExecutionContext(
            timeout=self.timeout,
            max_rows=self.max_rows,
            cancellation=self.cancellation,
        )

    def _solve(self, phi: float | None = None, index: int | None = None) -> QuantileResult:
        plan = self.plan()
        if not self._has_guards():
            return self._execute(plan.strategy, phi, index)
        try:
            with self._fresh_context():
                return self._execute(plan.strategy, phi, index)
        except BudgetExceededError as tripped:
            return self._degrade(plan.strategy, tripped, phi, index)

    def _degrade(
        self,
        planned: str,
        tripped: BudgetExceededError,
        phi: float | None,
        index: int | None,
    ) -> QuantileResult:
        """Walk the degradation ladder after ``planned`` tripped a budget.

        Every rung runs under a fresh budget.  A rung that trips again, or
        is invalid for this query (which it raises before it reduces or
        counts), is skipped; cancellation always propagates.  If no rung succeeds,
        the last budget error is re-raised.
        """
        first = tripped
        for rung in degradation_ladder(self.on_budget, planned):
            try:
                with self._fresh_context():
                    result = self._execute(rung, phi, index)
            except BudgetExceededError as again:
                tripped = again
                continue
            except (
                SolverError, TrimmingError, RankingError, IntractableQueryError, CyclicQueryError
            ):
                # The rung is invalid for this (query, ranking); try the next.
                continue
            note = (
                f"{planned} -> {rung} "
                f"({first.budget} budget tripped at {first.checkpoint!r})"
            )
            warnings.warn(DegradedResultWarning(note), stacklevel=4)
            return replace(result, degraded=True, degradation=note)
        raise tripped

    def _execute(
        self, strategy: str, phi: float | None = None, index: int | None = None
    ) -> QuantileResult:
        """Run one concrete strategy (planned or a degradation rung)."""
        checkpoint("engine.execute")
        if strategy == "exact-pivot" and self._shard_count >= 2:
            result = self._try_parallel(phi, index)
            if result is not None:
                return result
        source = self._ensure_source(strategy)
        if isinstance(source, SampledAnswers):
            return source.answer(phi, index)
        return self._pivot(source, self._mode_caches(strategy), phi, index)

    def _pivot(
        self,
        source: PreparedSource,
        caches: tuple[CappedCache, CappedCache],
        phi: float | None,
        index: int | None,
    ) -> QuantileResult:
        """Algorithm 1 over one strategy's source and serial caches."""
        return pivoting_quantile(
            source.query,
            source.db,
            self.ranking,
            None,
            phi=phi,
            index=index,
            epsilon=self.epsilon,
            termination_size=self.termination_factor * max(source.size, 1),
            pivot_cache=caches[0],
            answer_cache=caches[1],
            source=source,
        )

    def cached(
        self, phi: float | None = None, index: int | None = None
    ) -> QuantileResult | None:
        """The result :meth:`quantile` / :meth:`selection` would return, if
        the caches already hold every step and terminal it needs; else ``None``.

        Computes nothing: it replays memoized pivoting steps and selects from
        a memoized terminal (``materialize``: its sorted answers), or gives
        up; ``sampling`` selects from the held sample, once it is drawn.
        ``None`` also when the plan is not made yet, and while shard workers
        are live.  Invalid targets raise what :meth:`quantile` raises.
        """
        plan = self._plan
        if plan is None or self.shards is not None:
            return None
        source = self._sources.get(plan.strategy)
        if isinstance(source, SampledAnswers):
            return source.answer(phi, index)
        caches = self._caches.get(plan.strategy)
        if source is None or caches is None:
            return None
        try:
            with replay():
                if not self._has_guards():
                    return self._pivot(source, caches, phi, index)
                with self._fresh_context():
                    return self._pivot(source, caches, phi, index)
        except (CacheMiss, BudgetExceededError):
            return None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def pivot_cache_size(self) -> int:
        """Number of memoized pivoting iterations currently held (all
        strategies, serial and sharded)."""
        return sum(len(steps) for steps, _ in list(self._caches.values()))

    def estimated_bytes(self) -> int:
        """Coarse, deterministic estimate of this prepared query's cache bytes.

        Counts the structures a prepared query holds beyond the base
        database: the semijoin-reduced database, the tree cache's
        materialized rows, the interval-keyed pivot/answer caches, and the
        candidate sources.  Rows are charged a flat per-row constant — this
        is an *accounting proxy* (like the row budget), not a measurement, so
        the service's byte-budget eviction behaves identically on every
        platform.
        """
        row_bytes = 64
        total = 4096  # fixed overhead: plan, trimmers, tree metadata
        if self._reduced_db is not None:
            total += self._reduced_db.size * row_bytes
        # Each cached tree re-materializes roughly the candidate database.
        total += len(self._tree_cache) * self.db.size * row_bytes
        # A memoized pivot iteration keeps two handles (approx-pivot: trimmed
        # sub-database views); each answer-cache entry what it holds: sorted
        # prefix answers (approx-pivot) or the cover's pairs, serial or
        # merged from the shards.
        total += self.pivot_cache_size * 1024
        # Each source and terminal once: materialize's is its own terminal.
        held: dict[int, Any] = {id(s): s for s in list(self._sources.values())}
        for _, answers in list(self._caches.values()):
            held.update((id(t), t) for t in list(answers.values()))
        total += sum(structure.estimated_bytes() for structure in held.values())
        # Shard payloads are replicated into worker processes; charge the
        # shipped rows (broadcast replication included) at the same rate.
        if self._parallel_plan is not None:
            total += self._parallel_plan.total_rows * row_bytes
        return total

    @property
    def tree_cache(self) -> TreeCache:
        """The shared materialized-tree cache (one tree per query/db pair)."""
        return self._tree_cache

    def clear_pivot_cache(self) -> None:
        """Drop the memoized pivoting iterations, serial and sharded, and the
        candidate sources with their memos (materialize's sorted answers and
        sampling's sample too: the next call redraws it); the rest of the
        prepared state is kept."""
        with self._state_lock:
            self._caches.clear()
            self._sources.clear()
        self._tree_cache.clear()

    def __repr__(self) -> str:
        prepared = "prepared" if self._plan is not None else "lazy"
        return (
            f"PreparedQuery({self.query!r}, ranking={self.ranking.describe()}, "
            f"strategy={self.strategy!r}, {prepared})"
        )


class Engine:
    """A quantile-query engine over one database.

    The engine owns a :class:`~repro.data.database.Database` and the memo of
    the :class:`PreparedQuery` objects it has handed out, nothing else.
    Prepared queries are memoized per resolved settings — repeated
    ``prepare`` calls for the same workload return the *same* prepared
    query, sharing all cached planning state.  Rankings with custom
    per-variable weight functions are never memoized (their signatures are
    not reliably comparable).
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._prepared: dict[tuple[Any, ...], PreparedQuery] = {}
        # Guards the prepared-query memo so concurrent prepare() calls for
        # the same signature share one PreparedQuery (and its caches) instead
        # of racing to create two.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        query: JoinQuery | str,
        ranking: RankingFunction | str,
        *,
        eager: bool = True,
        **knobs: Any,
    ) -> PreparedQuery:
        """Plan a (query, ranking) pair once and return the prepared query.

        Parameters
        ----------
        query, ranking:
            Objects or string specs (``"R(x1, x2), S(x2, x3)"``,
            ``"sum(x1, x3)"``).
        eager:
            Run all preprocessing now (default).  ``eager=False`` defers
            every computation to first use — planning errors then surface on
            the first execution call instead of here (the command line and
            :meth:`count` prepare this way).
        knobs:
            :class:`PreparedQuery`'s keyword parameters (``epsilon``,
            ``strategy``, ``seed``, ``termination_factor``, ``timeout``,
            ``max_rows``, ``on_budget``, ``cancellation``, ``parallel``, …),
            defaulted and validated there and nowhere else.  A prepared
            query carrying a cancellation token is never memoized — the
            token is per-caller state.
        """
        # Constructing is cheap (validation only, no preprocessing), and the
        # candidate's attributes are the resolved settings the memo keys on.
        candidate = PreparedQuery(query, self.db, ranking, **knobs)
        key = self._signature(candidate)
        with self._lock:
            prepared = (
                candidate if key is None else self._prepared.setdefault(key, candidate)
            )
        if eager:
            # Outside the memo lock: preprocessing can be heavy, and the
            # prepared query's own state lock already serializes it.
            prepared.prepare()
        return prepared

    @staticmethod
    def _signature(prepared: PreparedQuery) -> tuple[Any, ...] | None:
        """Memoization key of a prepared query, or None if not memoizable."""
        if getattr(prepared.ranking, "_weights", None):
            return None
        if prepared.cancellation is not None:
            # A cancellation token is per-caller, mutable state: sharing the
            # prepared query would let one caller's cancel abort another's.
            return None
        return (
            prepared.query,
            type(prepared.ranking),
            prepared.ranking.weighted_variables,
            prepared.epsilon,
            prepared.strategy,
            prepared.seed,
            prepared.termination_factor,
            prepared.timeout,
            prepared.max_rows,
            prepared.on_budget,
            prepared._shard_count,
        )

    # ------------------------------------------------------------------ #
    # One-shot conveniences (still memoized through prepare)
    # ------------------------------------------------------------------ #
    def quantile(
        self,
        query: JoinQuery | str,
        ranking: RankingFunction | str,
        phi: float,
        **kwargs: Any,
    ) -> QuantileResult:
        """``prepare(...).quantile(phi)`` in one call."""
        return self.prepare(query, ranking, **kwargs).quantile(phi)

    def quantiles(
        self,
        query: JoinQuery | str,
        ranking: RankingFunction | str,
        phis: Sequence[float],
        **kwargs: Any,
    ) -> list[QuantileResult]:
        """``prepare(...).quantiles(phis)`` in one call."""
        return self.prepare(query, ranking, **kwargs).quantiles(phis)

    def selection(
        self,
        query: JoinQuery | str,
        ranking: RankingFunction | str,
        index: int,
        **kwargs: Any,
    ) -> QuantileResult:
        """``prepare(...).selection(index)`` in one call."""
        return self.prepare(query, ranking, **kwargs).selection(index)

    def count(self, query: JoinQuery | str, ranking: RankingFunction | str | None = None) -> int:
        """``|Q(D)|`` for a query over the engine's database."""
        if isinstance(query, str):
            query = JoinQuery.parse(query)
        if ranking is None:
            # Counting does not need a ranking; synthesize one over any variable.
            ranking = MinRanking([next(iter(sorted(query.variables)))])
        return self.prepare(query, ranking, eager=False).count()

    @property
    def prepared_count(self) -> int:
        """Number of memoized prepared queries."""
        return len(self._prepared)

    def evict(self, prepared: PreparedQuery) -> bool:
        """Drop one memoized prepared query (by identity).

        Used by the service's engine pool to enforce its byte budget: once
        evicted here (and from the pool's LRU), the prepared query's caches
        become garbage as soon as no caller holds it.  Returns whether the
        query was memoized.
        """
        with self._lock:
            for key, candidate in list(self._prepared.items()):
                if candidate is prepared:
                    del self._prepared[key]
                    prepared.close()
                    return True
        return False

    def clear(self) -> None:
        """Drop all memoized prepared queries (closing their worker pools)."""
        with self._lock:
            for prepared in self._prepared.values():
                prepared.close()
            self._prepared.clear()

    def __repr__(self) -> str:
        return f"Engine(db={self.db.size} tuples, prepared={self.prepared_count})"


__all__ = [
    "STRATEGIES",
    "SolverPlan",
    "Engine",
    "PreparedQuery",
    "DEFAULT_PIVOT_CACHE_LIMIT",
    "DEFAULT_ANSWER_CACHE_LIMIT",
]
