"""Engine pool: one engine per registered database, bounded prepared cache.

The pool is the multi-tenant heart of the always-on service.  It owns one
:class:`~repro.engine.Engine` per registered database and
an LRU of :class:`~repro.engine.PreparedQuery` objects shared across all
callers, bounded by a *byte budget* instead of an entry count: every
prepared query reports a deterministic estimate of its resident cache bytes
(:meth:`PreparedQuery.estimated_bytes`, counted once per prepared query
however many request spellings share it), and the pool evicts
least-recently-used entries until the estimate fits, dropping a prepared
query from the engine's memo when its last entry leaves.  A single entry
larger than the whole budget is still served (the request must be
answerable) but is evicted as soon as another entry arrives.

All methods are thread-safe, and the pool needs no per-key lock of its own:
concurrent requests for one signature run at once on the one shared
prepared query.  A cold build still happens once, because the engine's
signature memo hands every caller the same object and that object's state
lock serializes its preparation steps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.data.database import Database
from repro.engine import Engine, PreparedQuery
from repro.exceptions import ValidationError
from repro.runtime import ExecutionContext
from repro.runtime.policy import validate_policy

#: Default byte budget for the prepared-query LRU (accounting bytes, see
#: :meth:`PreparedQuery.estimated_bytes`).
DEFAULT_PREPARED_BUDGET_BYTES = 256 * 1024 * 1024


class UnknownDatabaseError(ValidationError):
    """A request referenced a database name the pool has not registered."""

    def __init__(self, name: str, known: list[str]) -> None:
        super().__init__(
            f"unknown database {name!r}; registered databases: {sorted(known)}"
        )
        self.name = name


class EnginePool:
    """Named engines plus a byte-budgeted LRU of shared prepared queries.

    Parameters
    ----------
    prepared_budget_bytes:
        Accounting-byte ceiling for all cached prepared queries together.
    timeout, max_rows, on_budget:
        The service's guardrail defaults: :meth:`prepared` applies them to
        every request that does not set its own.
    """

    def __init__(
        self,
        prepared_budget_bytes: int = DEFAULT_PREPARED_BUDGET_BYTES,
        timeout: float | None = None,
        max_rows: int | None = None,
        on_budget: str = "error",
    ) -> None:
        if prepared_budget_bytes < 1:
            raise ValidationError("prepared_budget_bytes must be positive")
        # A bad default fails the service at start-up, not each request: the
        # budgets are checked by the context that enforces them.
        ExecutionContext(timeout=timeout, max_rows=max_rows)
        validate_policy(on_budget)
        self.prepared_budget_bytes = prepared_budget_bytes
        self._timeout = timeout
        self._max_rows = max_rows
        self._on_budget = on_budget
        self._engines: dict[str, Engine] = {}
        #: LRU of (db name, query spec, ranking spec, knobs) -> PreparedQuery.
        #: The engine memoizes by parsed signature, so spellings of one
        #: request ("sum(x1,x2)", "sum(x1, x2)") are keys of one object.
        self._prepared: OrderedDict[tuple, PreparedQuery] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Databases
    # ------------------------------------------------------------------ #
    def register(self, name: str, db: Database) -> Engine:
        """Register ``db`` under ``name`` and return its engine.

        Registering an existing name replaces the engine (and drops its
        prepared queries from the LRU): the service treats registered
        databases as immutable, so replacement is the only supported update.
        """
        if not name:
            raise ValidationError("database name must be non-empty")
        engine = Engine(db)
        with self._lock:
            self._engines[name] = engine
            for key in [k for k in self._prepared if k[0] == name]:
                del self._prepared[key]
        return engine

    def engine(self, name: str) -> Engine:
        """The engine registered under ``name``."""
        with self._lock:
            engine = self._engines.get(name)
        if engine is None:
            raise UnknownDatabaseError(name, list(self._engines))
        return engine

    def databases(self) -> list[str]:
        """Registered database names, sorted."""
        with self._lock:
            return sorted(self._engines)

    def __contains__(self, name: object) -> bool:
        """Whether a database is registered under ``name``."""
        return name in self._engines

    # ------------------------------------------------------------------ #
    # Prepared queries
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(
        name: str,
        query: str,
        ranking: str,
        epsilon: float | None = None,
        strategy: str = "auto",
        seed: int | None = None,
        timeout: float | None = None,
        max_rows: int | None = None,
        on_budget: str | None = None,
    ) -> tuple[Any, ...]:
        """The LRU key of one request signature."""
        return (name, query, ranking, epsilon, strategy, seed, timeout, max_rows, on_budget)

    def lookup(self, name: str, query: str, ranking: str, **knobs: Any) -> PreparedQuery | None:
        """The cached prepared query for one request signature (a hit), or
        ``None``; never builds one, so the event loop may call it."""
        key = self._key(name, query, ranking, **knobs)
        with self._lock:
            cached = self._prepared.get(key)
            if cached is not None:
                self._prepared.move_to_end(key)
                self.hits += 1
            return cached

    def prepared(
        self,
        name: str,
        query: str,
        ranking: str,
        epsilon: float | None = None,
        strategy: str = "auto",
        seed: int | None = None,
        timeout: float | None = None,
        max_rows: int | None = None,
        on_budget: str | None = None,
    ) -> PreparedQuery:
        """The shared prepared query for one request signature (LRU-cached).

        May run the engine's full preparation pass, so the service calls it
        from an executor thread, never from the event loop.
        """
        engine = self.engine(name)
        knobs: dict[str, Any] = dict(
            epsilon=epsilon, strategy=strategy, seed=seed, timeout=timeout,
            max_rows=max_rows, on_budget=on_budget,
        )
        cached = self.lookup(name, query, ranking, **knobs)
        if cached is not None:
            return cached
        with self._lock:
            self.misses += 1
        prepared = engine.prepare(
            query,
            ranking,
            epsilon=epsilon,
            strategy=strategy,
            seed=seed,
            timeout=self._timeout if timeout is None else timeout,
            max_rows=self._max_rows if max_rows is None else max_rows,
            on_budget=self._on_budget if on_budget is None else on_budget,
        )
        key = self._key(name, query, ranking, **knobs)
        with self._lock:
            self._prepared[key] = prepared
            self._prepared.move_to_end(key)
            self._enforce_budget_locked()
        return prepared

    def _enforce_budget_locked(self) -> None:
        """Evict LRU prepared queries until the byte estimate fits the budget.

        The newest entry is never evicted — the request that created it is
        about to run against it — so a single oversized workload is served
        (and recorded in ``stats()``) rather than refused.
        """
        while len(self._prepared) > 1 and self.estimated_bytes() > self.prepared_budget_bytes:
            key, evicted = self._prepared.popitem(last=False)
            self.evictions += 1
            if any(pq is evicted for pq in self._prepared.values()):
                continue  # another spelling of the same request still holds it
            engine = self._engines.get(key[0])
            if engine is not None:
                engine.evict(evicted)

    def estimated_bytes(self) -> int:
        """Accounting-byte total of the cached prepared queries, each counted
        once however many request spellings (LRU keys) share it."""
        distinct = {id(pq): pq for pq in self._prepared.values()}
        return sum(pq.estimated_bytes() for pq in distinct.values())

    @property
    def prepared_count(self) -> int:
        with self._lock:
            return len(self._prepared)

    def stats(self) -> dict[str, Any]:
        """Pool statistics for the stats endpoint."""
        with self._lock:
            estimated = self.estimated_bytes()
            return {
                "databases": sorted(self._engines),
                "prepared_queries": len(self._prepared),
                "estimated_bytes": estimated,
                "budget_bytes": self.prepared_budget_bytes,
                "over_budget": estimated > self.prepared_budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
