"""Structured per-request records of the always-on quantile service.

Every request that reaches the service — served, shed, degraded, errored, or
cancelled — produces one :class:`RequestRecord`: a flat, JSON-serializable
account of what happened (latency split into queue and execute time, the
degradation rungs taken, checkpoint counts).  The server appends them to a
bounded :class:`RecordLog` and exposes recent records plus aggregate
counters through ``GET /stats``, so operators can see shedding and
degradation happening without scraping logs.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from typing import Any

#: Terminal states a request record can report.
REQUEST_STATUSES = ("ok", "degraded", "shed", "error", "cancelled")

#: Bound on retained records (aggregate counters outlive it).
DEFAULT_RECORD_LIMIT = 512


@dataclass
class RequestRecord:
    """One request's structured outcome.

    Attributes
    ----------
    request_id:
        Monotonically increasing per-server id.
    db, query, ranking, phis:
        What was asked.
    status:
        One of :data:`REQUEST_STATUSES`.  ``"degraded"`` means the request
        was answered but at least one result fell down the degradation
        ladder; ``"shed"`` means admission control rejected it.
    http_status:
        The HTTP status code returned.
    queue_seconds, execute_seconds, total_seconds:
        Latency split: time spent waiting for an execution slot, time inside
        the engine, and end-to-end.
    degraded:
        Whether any returned result carries ``degraded=True``.
    degradation_rungs:
        The distinct degradation notes of the degraded results.
    checkpoints:
        Runtime checkpoints observed while the request's targets ran on the
        executor; 0 when ``served`` is ``"cache"`` (a replay is not counted).
    served:
        Where the targets ran: ``"cache"`` (every one memoized, answered on
        the event loop), ``"executor"``, or ``None`` when nothing ran (shed,
        refused, unknown database).
    error:
        Error message for ``error``/``cancelled``/``shed`` outcomes.
    retry_after:
        Suggested seconds to wait before retrying (shed responses only).
    """

    request_id: int
    db: str
    query: str
    ranking: str
    phis: list[float] = field(default_factory=list)
    status: str = "ok"
    http_status: int = 200
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0
    degraded: bool = False
    degradation_rungs: list[str] = field(default_factory=list)
    checkpoints: int = 0
    served: str | None = None
    error: str | None = None
    retry_after: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (what ``GET /stats`` returns)."""
        return asdict(self)


class RecordLog:
    """Thread-safe bounded log of request records with aggregate counters.

    The server appends from the event loop; benchmarks and the stats
    endpoint read snapshots.  Aggregates survive eviction from the bounded
    ring, so long-running totals stay correct.
    """

    def __init__(self) -> None:
        self._records: deque[RequestRecord] = deque(maxlen=DEFAULT_RECORD_LIMIT)
        self._lock = threading.Lock()
        self._by_status: Counter[str] = Counter()
        self._by_served: Counter[str] = Counter(cache=0, executor=0)
        self._total = 0

    def append(self, record: RequestRecord) -> None:
        with self._lock:
            self._records.append(record)
            self._by_status[record.status] += 1
            if record.served is not None:
                self._by_served[record.served] += 1
            self._total += 1

    def __len__(self) -> int:
        return self._total

    def recent(self, limit: int = 50) -> list[dict[str, Any]]:
        """The newest ``limit`` records, oldest first."""
        with self._lock:
            tail = list(self._records)[-limit:]
        return [record.to_dict() for record in tail]

    def counters(self) -> dict[str, Any]:
        """Aggregate counters across the server's lifetime."""
        with self._lock:
            return {
                "total": self._total,
                "by_status": dict(self._by_status),
                "by_served": dict(self._by_served),
            }
