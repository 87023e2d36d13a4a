"""The always-on quantile service: an asyncio HTTP server over an engine pool.

Stdlib only.  One process owns an :class:`~repro.service.pool.EnginePool`
(an engine per registered database plus a byte-budgeted LRU of shared
prepared queries) and a robustness layer:

* **admission control** (:mod:`repro.service.admission`) bounds in-flight
  executions and queue depth, shedding overload with 429 responses that
  carry retry-after hints;
* **two ways in, both behind admission**: a ``/query`` is validated,
  admitted, run against the pool's shared prepared query, and answered with
  one result per requested target, in request order.  When the prepared
  query's caches already hold every target (a replay of memoized pivot
  steps and terminals, :meth:`~repro.engine.PreparedQuery.cached`), the
  request is answered on the event loop; everything else runs on the
  executor.  Concurrent requests with the same (db, query, ranking, knobs)
  share that prepared query and its caches, so the paper's amortization
  applies across callers;
* **graceful lifecycle** — ``/healthz``/``/readyz`` endpoints, and a drain
  sequence that stops accepting, sheds the queue, waits out in-flight
  requests, and finally cancels stragglers through a shared
  :class:`~repro.runtime.CancellationToken`;
* **structured records** (:mod:`repro.service.records`) for every request.

Endpoints (all JSON)::

    GET  /healthz          liveness (200 while the process runs)
    GET  /readyz           readiness (503 before start / while draining)
    GET  /stats            pool, admission, and record stats
    GET  /databases        registered database names
    POST /query            {"db", "query", "ranking", "phis" | "index", ...}
    POST /admin/shutdown   begin a graceful drain (202)

HTTP handling is deliberately minimal: HTTP/1.1, ``Connection: close``, one
request per connection.  The service is an engine front-end, not a general
web server.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.core.quantile import check_phi
from repro.engine import PreparedQuery
from repro.exceptions import (
    BudgetExceededError,
    DegradedResultWarning,
    ExecutionCancelledError,
    ReproError,
    ServiceLifecycleError,
    ValidationError,
)
from repro.kernels import backend_name
from repro.parallel.planner import default_shard_count, resolve_shard_count
from repro.runtime import CancellationToken, ExecutionContext
from repro.service.admission import AdmissionController, ShedRequestError
from repro.service.pool import EnginePool
from repro.service.records import RecordLog, RequestRecord

#: Service exit codes (mirrored by ``python -m repro.cli serve``).
EXIT_OK = 0            # clean drain: every task accounted for
EXIT_DIRTY_DRAIN = 5   # tasks had to be force-cancelled at shutdown


#: Seconds a client has to deliver its whole request (line, headers, body).
REQUEST_TIMEOUT = 10.0
#: Largest request body read into memory; a longer one is answered 413 unread.
MAX_BODY_BYTES = 1024 * 1024

#: The reason phrase of each status the service answers with.
_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 413: "Content Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


#: The type of each request knob.  A float knob also takes an int, a bool is
#: never a number; ``parallel`` has its own rule, :func:`resolve_shard_count`.
_KNOB_TYPES: dict[str, type[Any]] = {
    "epsilon": float,
    "strategy": str,
    "seed": int,
    "timeout": float,
    "max_rows": int,
    "on_budget": str,
}


class _RefusedRequest(Exception):
    """A request turned away while it is being read, with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; one over the reader's 64 KiB limit is a 400."""
    try:
        return await reader.readline()
    except ValueError:
        raise _RefusedRequest(400, "request line or header too long") from None


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (all enforced, none advisory)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port from Service.port
    max_inflight: int = 4
    max_queue: int = 16
    queue_timeout: float = 2.0
    #: Per-request guardrail defaults (requests may override, never exceed 0).
    default_timeout: float | None = None
    default_max_rows: int | None = None
    default_on_budget: str = "error"
    prepared_budget_bytes: int = 256 * 1024 * 1024
    #: Seconds to wait for in-flight requests before cancelling them.
    drain_grace: float = 5.0


class QuantileService:
    """The service object: engine pool + admission + lifecycle.

    One lifecycle: :meth:`start`, then :meth:`run_until_shutdown`.  The
    ``serve`` CLI subcommand drives it on the main thread (with signal
    handlers calling :meth:`request_shutdown`), :class:`ServiceThread` on a
    background thread (tests, benches, smoke runs).
    """

    def __init__(self, config: ServiceConfig | None = None, pool: EnginePool | None = None) -> None:
        self.config = config or ServiceConfig()
        self.pool = pool or EnginePool(
            prepared_budget_bytes=self.config.prepared_budget_bytes,
            timeout=self.config.default_timeout,
            max_rows=self.config.default_max_rows,
            on_budget=self.config.default_on_budget,
        )
        self.records = RecordLog()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
        )
        self._drain_token = CancellationToken()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight, thread_name_prefix="repro-exec"
        )
        self._request_ids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[asyncio.Task[None]] = set()
        self._shutdown_requested = asyncio.Event()
        self._started_at: float | None = None
        self._draining = False
        self.host: str | None = None
        self.port: int | None = None
        #: Connection tasks that survived the drain and had to be killed.
        self.orphaned_tasks = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        if self._server is not None:
            raise ValidationError("service already started")
        self._loop = asyncio.get_running_loop()
        # Degradation is reported structurally (records + result fields);
        # the warning channel would only interleave noise across threads.
        warnings.filterwarnings("ignore", category=DegradedResultWarning)
        self._server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Ask the service to drain (thread-safe, idempotent)."""
        if self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._shutdown_requested.set)
        except RuntimeError:
            # The loop closed between the check and the call: the server
            # already shut down, which is exactly what was requested.
            pass

    async def run_until_shutdown(self) -> int:
        """Serve until a shutdown is requested, then drain; returns exit code."""
        await self._shutdown_requested.wait()
        return await self.shutdown()

    async def shutdown(self) -> int:
        """Graceful drain: stop accepting, shed the queue, drain, cancel.

        Returns :data:`EXIT_OK` when every in-flight request finished (or
        cancelled cooperatively) and :data:`EXIT_DIRTY_DRAIN` when a task had
        to be force-cancelled — the smoke test asserts the former.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Queued requests are shed immediately; in-flight ones keep running.
        self.admission.close()
        pending = {task for task in self._connections if not task.done()}
        if pending:
            _, pending = await asyncio.wait(pending, timeout=self.config.drain_grace)
        if pending:
            # Cooperative cancellation: every execution observes the token at
            # its next checkpoint and unwinds as ExecutionCancelledError.
            self._drain_token.cancel("server shutting down")
            _, pending = await asyncio.wait(pending, timeout=self.config.drain_grace)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending, timeout=1.0)
        self.orphaned_tasks = len(pending)
        self._executor.shutdown(wait=True)
        return EXIT_OK if not self.orphaned_tasks else EXIT_DIRTY_DRAIN

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending_connections(self) -> int:
        return sum(1 for task in self._connections if not task.done())

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            status, payload, headers = await self._serve_one(reader)
            await self._write_response(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass
            self._connections.discard(task)

    async def _serve_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        try:
            # One timer over the whole read: a client stalling in the headers
            # or sending a short body is cut off like one that sends nothing.
            method, path, body = await asyncio.wait_for(
                self._read_request(reader), timeout=REQUEST_TIMEOUT
            )
        except asyncio.TimeoutError:
            return 408, {"error": "request timed out"}, {}
        except _RefusedRequest as refused:
            return refused.status, {"error": str(refused)}, {}
        return await self._route(method, path, body)

    async def _read_request(self, reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
        """Read one request off the wire: ``(method, path, body)``."""
        parts = (await _read_line(reader)).decode("latin-1").split()
        if len(parts) < 2:
            raise _RefusedRequest(400, "malformed request line")
        headers: dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise _RefusedRequest(400, "Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            raise _RefusedRequest(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return parts[0].upper(), parts[1], body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str],
    ) -> None:
        body = json.dumps(payload, default=str).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{key}: {value}" for key, value in headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            return 200, {"status": "ok"}, {}
        if path == "/readyz":
            if self._draining:
                return 503, {"status": "draining"}, {}
            if not self.pool.databases():
                return 503, {"status": "no databases registered"}, {}
            return 200, {"status": "ready"}, {}
        if path == "/stats":
            return 200, self.stats(), {}
        if path == "/databases":
            return 200, {"databases": self.pool.databases()}, {}
        if path == "/admin/shutdown":
            if method != "POST":
                return 405, {"error": "POST required"}, {}
            self._shutdown_requested.set()
            return 202, {"status": "draining"}, {}
        if path == "/query":
            if method != "POST":
                return 405, {"error": "POST required"}, {}
            return await self._handle_query(body)
        return 404, {"error": f"unknown path {path!r}"}, {}

    def stats(self) -> dict[str, Any]:
        uptime = (
            time.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "uptime_seconds": round(uptime, 3),
            "kernel_backend": backend_name(),
            "draining": self._draining,
            "pending_connections": self.pending_connections,
            "pool": self.pool.stats(),
            "parallel": {
                "cpu_count": os.cpu_count() or 1,
                "default_shard_count": default_shard_count(),
            },
            "admission": self.admission.stats(),
            # Read by benchmarks/e2e/service.py (service.coalesced_share).
            "coalescing": {"requests": len(self.records), "merged_requests": 0},
            "requests": self.records.counters(),
            "recent": self.records.recent(50),
        }

    # ------------------------------------------------------------------ #
    # The query path
    # ------------------------------------------------------------------ #
    async def _handle_query(self, body: bytes) -> tuple[int, dict[str, Any], dict[str, str]]:
        started = time.monotonic()
        request_id = next(self._request_ids)
        try:
            spec = json.loads(body.decode() or "{}")
            if not isinstance(spec, dict):
                raise ValidationError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as error:
            return 400, {"error": f"invalid JSON body: {error}"}, {}
        record = RequestRecord(
            request_id=request_id,
            db=str(spec.get("db", "")),
            query=str(spec.get("query", "")),
            ranking=str(spec.get("ranking", "")),
        )
        try:
            status, payload, headers = await self._execute_query(spec, record, started)
        except ShedRequestError as shed:
            status, payload, headers = self._shed_response(shed, record)
        except (ExecutionCancelledError, asyncio.CancelledError) as error:
            if self._shutdown_requested.is_set() or self._draining:
                record.status, record.http_status = "cancelled", 503
                record.error = str(error) or "cancelled during shutdown"
                status, payload, headers = (
                    503,
                    {"request_id": request_id, "error": record.error, "cancelled": True},
                    {},
                )
            else:
                raise
        except ReproError as error:
            record.status, record.http_status, record.error = "error", 400, str(error)
            status, payload, headers = 400, {"request_id": request_id, "error": str(error)}, {}
        except Exception as error:  # noqa: BLE001 - the server must not die
            record.status, record.http_status = "error", 500
            record.error = f"{type(error).__name__}: {error}"
            status, payload, headers = 500, {"request_id": request_id, "error": record.error}, {}
        record.total_seconds = round(time.monotonic() - started, 6)
        record.http_status = status
        self.records.append(record)
        return status, payload, headers

    def _shed_response(
        self, shed: ShedRequestError, record: RequestRecord
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if shed.reason == "shutting down":
            record.status, record.error = "cancelled", str(shed)
            return 503, {"request_id": record.request_id, "error": str(shed)}, {}
        record.status, record.error = "shed", str(shed)
        record.retry_after = shed.retry_after
        headers = {}
        if shed.retry_after is not None:
            headers["Retry-After"] = f"{shed.retry_after:.2f}"
        return (
            429,
            {
                "request_id": record.request_id,
                "error": str(shed),
                "shed": True,
                "reason": shed.reason,
                "retry_after": shed.retry_after,
            },
            headers,
        )

    async def _execute_query(
        self, spec: dict[str, Any], record: RequestRecord, started: float
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if self._draining:
            raise ShedRequestError("shutting down", None)
        db_name = spec.get("db")
        query = spec.get("query")
        ranking = spec.get("ranking")
        if not db_name or not isinstance(db_name, str):
            raise ValidationError("'db' (a registered database name) is required")
        if not query or not isinstance(query, str):
            raise ValidationError("'query' (a query spec string) is required")
        if not ranking or not isinstance(ranking, str):
            raise ValidationError("'ranking' (a ranking spec string) is required")
        if db_name not in self.pool:
            record.status, record.http_status = "error", 404
            record.error = f"unknown database {db_name!r}"
            return 404, {"request_id": record.request_id, "error": record.error}, {}
        phis = spec.get("phis")
        index = spec.get("index")
        if (phis is None) == (index is None):
            raise ValidationError("provide exactly one of 'phis' and 'index'")
        if phis is not None:
            if isinstance(phis, (int, float)):
                phis = [phis]
            if not isinstance(phis, list) or not phis:
                raise ValidationError("'phis' must be a non-empty list of numbers")
            for phi in phis:
                check_phi(phi)
            targets: tuple[Any, ...] = tuple(float(phi) for phi in phis)
            mode = "phi"
        else:
            if not isinstance(index, int) or isinstance(index, bool):
                raise ValidationError(f"'index' must be an integer, got {index!r}")
            targets = (index,)
            mode = "index"
        knobs = self._guard_knobs(spec)
        record.phis = list(targets)
        record.parallel = knobs.get("parallel")

        queue_seconds = await self.admission.acquire()
        execute_seconds = 0.0
        try:
            prepared = self.pool.lookup(db_name, query, ranking, **knobs)
            replay_started = time.perf_counter()
            outcomes = None if prepared is None else self._replay(prepared, mode, targets)
            if outcomes is not None:
                record.served = "cache"
                execute_seconds = time.perf_counter() - replay_started
            else:
                record.served = "executor"
                outcomes, execute_seconds, record.checkpoints, record.shards = (
                    await asyncio.get_running_loop().run_in_executor(
                        self._executor, self._run_batch,
                        db_name, query, ranking, knobs, mode, targets, prepared,
                    )
                )
        finally:
            self.admission.release(execute_seconds)
        record.queue_seconds = round(queue_seconds, 6)
        record.execute_seconds = round(execute_seconds, 6)
        return self._query_response(record, mode, targets, outcomes)

    def _guard_knobs(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Validated solver/guardrail knobs a request may set.

        A value of the wrong JSON type is refused, never coerced: 2.7 shards
        or a ``true`` epsilon is a client bug, not a request for 2 or 1.0.
        """
        knobs: dict[str, Any] = {}
        for name, kind in _KNOB_TYPES.items():
            value = spec.get(name)
            if value is None:
                continue
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValidationError(f"invalid value for {name!r}: {value!r}")
            knobs[name] = kind(value)
        parallel = spec.get("parallel")
        if parallel is not None:
            resolve_shard_count(parallel)  # the engine's rule; raises ValidationError
            knobs["parallel"] = parallel
        return knobs

    @staticmethod
    def _replay(
        prepared: PreparedQuery, mode: str, targets: tuple[Any, ...]
    ) -> dict[Any, Any] | None:
        """Each distinct target's outcome from the prepared query's caches, or
        ``None`` at the first one they do not hold.  Runs on the event loop:
        :meth:`PreparedQuery.cached` computes nothing."""
        outcomes: dict[Any, Any] = {}
        for target in dict.fromkeys(targets):
            try:
                if mode == "phi":
                    outcome = prepared.cached(phi=target)
                else:
                    outcome = prepared.cached(index=target)
            except (ReproError, ValueError) as error:
                outcome = error  # what the executor would answer, too
            if outcome is None:
                return None
            outcomes[target] = outcome
        return outcomes

    # Runs inside an executor thread: everything here is synchronous.
    def _run_batch(
        self,
        db_name: str,
        query: str,
        ranking: str,
        knobs: dict[str, Any],
        mode: str,
        targets: tuple[Any, ...],
        prepared: PreparedQuery | None = None,
    ) -> tuple[dict[Any, Any], float, int, int | None]:
        """Run each distinct target once: ``(outcomes by target, seconds,
        checkpoints, shards)``; a target that failed maps to its error.
        ``prepared`` is the pool's entry when the request already looked it up."""
        batch_started = time.perf_counter()
        if prepared is None:
            prepared = self.pool.prepared(db_name, query, ranking, **knobs)
        outcomes: dict[Any, Any] = {}
        # The ambient outer context carries the drain token: a shutdown
        # cancellation reaches every checkpoint of every strategy, while the
        # prepared query's own per-call contexts keep their fresh budgets.
        context = ExecutionContext(cancellation=self._drain_token)
        with context:
            for target in dict.fromkeys(targets):
                try:
                    if mode == "phi":
                        outcomes[target] = prepared.quantile(target)
                    else:
                        outcomes[target] = prepared.selection(target)
                except (ReproError, ValueError) as error:
                    # Per-target failure: the other targets still answer
                    # (ExecutionCancelledError included — remaining targets
                    # fail fast at their first checkpoint).
                    outcomes[target] = error
        elapsed = time.perf_counter() - batch_started
        # Read after execution: the parallel session is built lazily, and a
        # crash/close mid-batch means the batch (partly) ran serial — report
        # what is actually live now.
        shards = getattr(prepared, "shards", None)
        return outcomes, elapsed, context.checkpoints, shards

    def _query_response(
        self, record: RequestRecord, mode: str,
        targets: tuple[Any, ...], outcomes: dict[Any, Any],
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """One result per requested target, in request order."""
        results = []
        errors = 0
        cancelled = 0
        budget_tripped = 0
        degradations: list[str] = []
        for target in targets:
            value = outcomes[target]
            if isinstance(value, BaseException):
                errors += 1
                if isinstance(value, ExecutionCancelledError):
                    cancelled += 1
                if isinstance(value, BudgetExceededError):
                    budget_tripped += 1
                results.append(
                    {
                        ("phi" if mode == "phi" else "index"): target,
                        "error": {
                            "type": type(value).__name__,
                            "message": str(value),
                            "budget": getattr(value, "budget", None),
                            "checkpoint": getattr(value, "checkpoint", None),
                        },
                    }
                )
                continue
            result = value
            if result.degraded and result.degradation:
                degradations.append(result.degradation)
            results.append(
                {
                    ("phi" if mode == "phi" else "index"): target,
                    "weight": result.weight,
                    "assignment": result.assignment,
                    "strategy": result.strategy,
                    "exact": result.exact,
                    "epsilon": result.epsilon,
                    "target_index": result.target_index,
                    "total_answers": result.total_answers,
                    "degraded": result.degraded,
                    "degradation": result.degradation,
                }
            )
        record.degraded = bool(degradations)
        record.degradation_rungs = sorted(set(degradations))
        if errors == len(results):
            if cancelled:
                record.status = "cancelled"
                status = 503
            elif budget_tripped == errors:
                record.status = "error"
                status = 504
            else:
                record.status = "error"
                status = 400
            record.error = str(outcomes[targets[0]])
        else:
            record.status = "degraded" if degradations else "ok"
            status = 200
        payload = {
            "request_id": record.request_id,
            "db": record.db,
            "queue_seconds": record.queue_seconds,
            "execute_seconds": record.execute_seconds,
            "degraded": record.degraded,
            "parallel": record.parallel,
            "shards": record.shards,
            "partial": 0 < errors < len(results),
            "results": results,
        }
        return status, payload, {}


# ---------------------------------------------------------------------- #
# Background-thread harness (tests, benches, smoke runs)
# ---------------------------------------------------------------------- #
class ServiceThread:
    """Run a :class:`QuantileService` on its own event loop in a thread.

    >>> handle = ServiceThread(service).start()        # doctest: +SKIP
    >>> handle.url
    'http://127.0.0.1:43197'
    >>> handle.shutdown()                              # doctest: +SKIP
    """

    def __init__(self, service: QuantileService) -> None:
        self.service = service
        self._thread: Any = None
        self._ready = None
        self.exit_code: int | None = None
        self.error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceLifecycleError("service failed to start within the timeout")
        if self.error is not None:
            raise ServiceLifecycleError(f"service failed to start: {self.error}")
        return self

    def _main(self) -> None:
        try:
            self.exit_code = asyncio.run(self._async_main())
        except BaseException as error:  # pragma: no cover - surfaced via error
            self.error = error
            if self._ready is not None:
                self._ready.set()

    async def _async_main(self) -> int:
        await self.service.start()
        self._ready.set()
        return await self.service.run_until_shutdown()

    @property
    def url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def shutdown(self, timeout: float = 30.0) -> int | None:
        """Request a drain and join the thread; returns the exit code."""
        self.service.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - drain hang
            raise ServiceLifecycleError("service thread did not exit within the timeout")
        return self.exit_code
