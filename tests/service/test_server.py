"""End-to-end service tests over real HTTP: lifecycle, queries, shedding."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro.engine import Engine, PreparedQuery
from repro.exceptions import ExecutionCancelledError, ValidationError
from repro.service import (
    QuantileService,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)
from repro.service import server as server_module
from repro.workloads.path import path_workload

QUERY = "R1(x1,x2), R2(x2,x3), R3(x3,x4)"
RANKING = "sum(x1, x2)"
#: MAX over the path endpoints + tight rows: exact-pivot trips, sampling fits
#: (same shape as tests/runtime/test_degradation.py's three_path recipe).
DEGRADE_RANKING = "max(x1, x4)"
DEGRADE_KNOBS = dict(epsilon=0.3, max_rows=1500, on_budget="degrade", seed=7)


def burst(svc, client, issue, clients, until):
    """Run ``issue(0) .. issue(clients - 1)`` concurrently, with every
    execution parked inside ``_run_batch`` until ``until(stats)`` holds, so
    the burst builds up however short an execution is."""
    release = threading.Event()
    run_batch = svc._run_batch

    def held_run_batch(*args):
        assert release.wait(timeout=30)
        return run_batch(*args)

    svc._run_batch = held_run_batch
    threads = [threading.Thread(target=issue, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    try:
        deadline = time.monotonic() + 30
        while not until(client.stats()):
            assert time.monotonic() < deadline, "the burst never built up"
    finally:
        release.set()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "a client never returned"


def count_run_batch(svc):
    """Record every ``_run_batch`` call (one per executor hop); returns the list."""
    calls = []
    run_batch = svc._run_batch

    def counted_run_batch(*args):
        calls.append(args)
        return run_batch(*args)

    svc._run_batch = counted_run_batch
    return calls


@pytest.fixture(scope="module")
def workload():
    return path_workload(3, 50, 6, seed=5)


@pytest.fixture()
def service(workload):
    service = QuantileService(
        ServiceConfig(max_inflight=2, max_queue=8, queue_timeout=2.0, drain_grace=5.0)
    )
    service.pool.register("demo", workload.db)
    handle = ServiceThread(service).start()
    try:
        yield service, ServiceClient.from_url(handle.url)
    finally:
        if handle.exit_code is None and handle.error is None:
            handle.shutdown()


class TestLifecycle:
    def test_health_and_readiness(self, service):
        _, client = service
        assert client.health().status == 200
        ready = client.ready()
        assert ready.status == 200
        assert ready.payload == {"status": "ready"}

    def test_readiness_requires_registered_databases(self):
        empty = QuantileService(ServiceConfig())
        handle = ServiceThread(empty).start()
        try:
            client = ServiceClient.from_url(handle.url)
            assert client.health().status == 200
            assert client.ready().status == 503
        finally:
            handle.shutdown()

    def test_graceful_shutdown_is_clean(self, workload):
        svc = QuantileService(ServiceConfig())
        svc.pool.register("demo", workload.db)
        handle = ServiceThread(svc).start()
        client = ServiceClient.from_url(handle.url)
        assert client.query("demo", QUERY, RANKING, phis=[0.5]).status == 200
        response = client.shutdown()
        assert response.status == 202
        assert handle.shutdown() == 0
        assert svc.orphaned_tasks == 0

    def test_draining_server_sheds_new_queries(self, workload):
        svc = QuantileService(ServiceConfig(drain_grace=2.0))
        svc.pool.register("demo", workload.db)
        handle = ServiceThread(svc).start()
        client = ServiceClient.from_url(handle.url)
        client.shutdown()
        handle.shutdown()
        assert svc.draining

    def test_unknown_path_404(self, service):
        _, client = service
        assert client.request("GET", "/nope").status == 404

    def test_get_on_query_405(self, service):
        _, client = service
        assert client.request("GET", "/query").status == 405


class TestQueries:
    def test_quantile_matches_direct_engine(self, service, workload):
        _, client = service
        response = client.query("demo", QUERY, RANKING, phis=[0.25, 0.5, 0.75])
        assert response.status == 200
        direct = Engine(workload.db).prepare(QUERY, RANKING)
        for entry in response.payload["results"]:
            expected = direct.quantile(entry["phi"])
            assert entry["weight"] == expected.weight
            assert entry["total_answers"] == expected.total_answers
            assert entry["exact"] is True

    def test_one_result_per_requested_target_in_request_order(self, service, workload):
        _, client = service
        response = client.query("demo", QUERY, RANKING, phis=[0.5, 0.5, 0.25])
        assert response.status == 200
        direct = Engine(workload.db).prepare(QUERY, RANKING)
        results = response.payload["results"]
        assert [entry["phi"] for entry in results] == [0.5, 0.5, 0.25]
        assert [entry["weight"] for entry in results] == [
            direct.quantile(phi).weight for phi in (0.5, 0.5, 0.25)
        ]

    def test_per_target_error_answers_a_partial_200(self, service, workload, monkeypatch):
        _, client = service
        direct = Engine(workload.db).prepare(QUERY, RANKING)
        expected = [direct.quantile(0.25).weight, direct.quantile(0.75).weight]
        quantile = PreparedQuery.quantile

        def refusing_the_median(prepared, phi):
            if phi == 0.5:
                raise ValidationError("median refused")
            return quantile(prepared, phi)

        monkeypatch.setattr(PreparedQuery, "quantile", refusing_the_median)
        response = client.query("demo", QUERY, RANKING, phis=[0.25, 0.5, 0.75])
        assert response.status == 200
        assert response.payload["partial"] is True
        first, refused, last = response.payload["results"]
        assert refused["error"]["type"] == "ValidationError"
        assert [first["weight"], last["weight"]] == expected

    def test_unexpected_error_is_a_structured_500_and_the_next_request_runs(
        self, service, monkeypatch
    ):
        svc, client = service

        def broken_run_batch(*args):
            raise RuntimeError("engine died")

        monkeypatch.setattr(svc, "_run_batch", broken_run_batch)
        response = client.query("demo", QUERY, RANKING, phis=[0.5])
        assert response.status == 500
        assert response.payload["error"] == "RuntimeError: engine died"
        assert client.stats()["admission"]["inflight"] == 0
        monkeypatch.undo()
        assert client.query("demo", QUERY, RANKING, phis=[0.5]).status == 200

    def test_selection_by_index(self, service, workload):
        _, client = service
        response = client.query("demo", QUERY, RANKING, index=5)
        assert response.status == 200
        expected = Engine(workload.db).prepare(QUERY, RANKING).selection(5)
        assert response.payload["results"][0]["weight"] == expected.weight

    def test_repeat_queries_hit_prepared_cache(self, service):
        svc, client = service
        client.query("demo", QUERY, RANKING, phis=[0.5])
        client.query("demo", QUERY, RANKING, phis=[0.25])
        assert svc.pool.hits >= 1

    def test_response_carries_latency_split(self, service):
        _, client = service
        payload = client.query("demo", QUERY, RANKING, phis=[0.5]).payload
        assert payload["queue_seconds"] >= 0.0
        assert payload["execute_seconds"] > 0.0


class TestLoopReplay:
    """A request whose targets are all memoized is answered on the event
    loop; anything else takes the executor hop, as every request once did."""

    def test_an_identical_warm_request_skips_the_executor(self, service):
        svc, client = service
        calls = count_run_batch(svc)
        first = client.query("demo", QUERY, RANKING, phis=[0.25, 0.5])
        assert len(calls) == 1
        again = client.query("demo", QUERY, RANKING, phis=[0.25, 0.5])
        assert len(calls) == 1
        assert again.status == first.status == 200
        assert again.payload["results"] == first.payload["results"]
        stats = client.stats()
        cold, warm = stats["recent"][-2:]
        assert (cold["served"], warm["served"]) == ("executor", "cache")
        assert cold["checkpoints"] > 0 and warm["checkpoints"] == 0
        assert stats["requests"]["by_served"] == {"cache": 1, "executor": 1}
        # One pool lookup per request: a miss, then a hit.
        assert (stats["pool"]["misses"], stats["pool"]["hits"]) == (1, 1)

    def test_a_cached_and_a_new_phi_run_once_in_request_order(self, service, workload):
        svc, client = service
        probe = Engine(workload.db).prepare(QUERY, RANKING)
        probe.quantile(0.05)
        assert probe.cached(phi=0.95) is None  # 0.95 needs steps 0.05 did not take
        client.query("demo", QUERY, RANKING, phis=[0.05])
        calls = count_run_batch(svc)
        response = client.query("demo", QUERY, RANKING, phis=[0.95, 0.05])
        assert len(calls) == 1
        assert [entry["phi"] for entry in response.payload["results"]] == [0.95, 0.05]
        assert [entry["weight"] for entry in response.payload["results"]] == [
            probe.quantile(0.95).weight, probe.quantile(0.05).weight
        ]
        stats = client.stats()
        assert stats["recent"][-1]["served"] == "executor"
        # The hit whose replay missed was counted once, not again on the executor.
        assert (stats["pool"]["misses"], stats["pool"]["hits"]) == (1, 1)

    def test_an_out_of_range_index_answers_as_on_the_executor(self, service, workload):
        svc, client = service
        total = Engine(workload.db).prepare(QUERY, RANKING).count()
        cold = client.query("demo", QUERY, RANKING, index=total)
        client.query("demo", QUERY, RANKING, phis=[0.5])
        calls = count_run_batch(svc)
        warm = client.query("demo", QUERY, RANKING, index=total)
        assert not calls and client.stats()["recent"][-1]["served"] == "cache"
        assert warm.status == cold.status == 400
        assert warm.payload["results"] == cold.payload["results"] == [
            {
                "index": total,
                "error": {
                    "type": "ValidationError",
                    "message": f"index must be an integer in [0, {total}), got {total}",
                    "budget": None,
                    "checkpoint": None,
                },
            }
        ]
        assert warm.payload["partial"] is cold.payload["partial"] is False

    @pytest.mark.parametrize("max_queue", [0, 4])
    def test_a_warm_request_still_waits_for_a_slot(self, workload, max_queue):
        svc = QuantileService(
            ServiceConfig(max_inflight=1, max_queue=max_queue, queue_timeout=10.0)
        )
        svc.pool.register("demo", workload.db)
        handle = ServiceThread(svc).start()
        try:
            client = ServiceClient.from_url(handle.url)
            assert client.query("demo", QUERY, RANKING, phis=[0.5]).status == 200
            warm = []
            sender = threading.Thread(
                target=lambda: warm.append(client.query("demo", QUERY, RANKING, phis=[0.5]))
            )

            def warm_request_turned_away_or_queued(stats):
                admission = stats["admission"]
                if admission["inflight"] < 1:
                    return False
                if sender.ident is None:
                    sender.start()  # only once the cold request holds the slot
                return admission["shed"] >= 1 or admission["waiting"] >= 1

            # The one slot is held by a cold request parked in _run_batch.
            burst(
                svc, client,
                lambda _: client.query("demo", QUERY, DEGRADE_RANKING, phis=[0.5]),
                1, until=warm_request_turned_away_or_queued,
            )
            sender.join(timeout=30)
            assert not sender.is_alive()
            (response,) = warm
            if max_queue:
                assert response.status == 200
                assert response.payload["queue_seconds"] > 0.0
                assert client.stats()["recent"][-1]["served"] == "cache"
            else:
                assert response.status == 429
                assert response.payload["reason"] == "queue full"
        finally:
            handle.shutdown()


class TestValidation:
    def test_unknown_database_404(self, service):
        _, client = service
        response = client.query("nope", QUERY, RANKING, phis=[0.5])
        assert response.status == 404
        assert "nope" in response.payload["error"]

    def test_phi_out_of_range_400(self, service):
        _, client = service
        assert client.query("demo", QUERY, RANKING, phis=[1.5]).status == 400

    @pytest.mark.parametrize("target", [{"phis": [True]}, {"phis": True}, {"index": True}])
    def test_a_bool_is_not_a_phi_or_an_index(self, service, target):
        _, client = service
        response = client.request(
            "POST", "/query", {"db": "demo", "query": QUERY, "ranking": RANKING, **target}
        )
        assert response.status == 400

    def test_epsilon_out_of_range_400(self, service):
        _, client = service
        response = client.query(
            "demo", QUERY, "sum(x1, x2, x3, x4)", phis=[0.5],
            epsilon=2.0, strategy="approx-pivot",
        )
        assert response.status == 400
        assert "epsilon" in response.payload["error"]

    def test_phis_and_index_are_exclusive(self, service):
        _, client = service
        both = client.request(
            "POST", "/query",
            {"db": "demo", "query": QUERY, "ranking": RANKING, "phis": [0.5], "index": 1},
        )
        assert both.status == 400
        neither = client.request(
            "POST", "/query", {"db": "demo", "query": QUERY, "ranking": RANKING}
        )
        assert neither.status == 400

    def test_malformed_json_400(self, service):
        _, client = service
        import http.client

        connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            connection.request(
                "POST", "/query", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_engine_error_is_structured_400(self, service):
        _, client = service
        # Full-SUM over the path endpoints is conditionally intractable.
        response = client.query("demo", QUERY, "sum(x1, x4)", phis=[0.5])
        assert response.status == 400
        assert "intractable" in response.payload["error"]

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("parallel", 2.7), ("parallel", True), ("parallel", 0),
            ("seed", 1.9), ("seed", True), ("max_rows", 10.5),
            ("epsilon", True), ("epsilon", "0.3"), ("timeout", "5"),
        ],
    )
    def test_mistyped_knob_is_refused_not_truncated(self, service, knob, value):
        _, client = service
        response = client.query("demo", QUERY, RANKING, phis=[0.5], **{knob: value})
        assert response.status == 400
        assert knob in response.payload["error"]

    @pytest.mark.parametrize(
        "knob, value",
        [("parallel", "auto"), ("parallel", 2), ("seed", 3), ("timeout", 30), ("max_rows", 10**9)],
    )
    def test_well_typed_knob_is_accepted(self, service, workload, monkeypatch, knob, value):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "inline")  # no worker processes to leak
        _, client = service
        response = client.query("demo", QUERY, RANKING, phis=[0.5], **{knob: value})
        assert response.status == 200
        expected = Engine(workload.db).prepare(QUERY, RANKING).quantile(0.5)
        assert response.payload["results"][0]["weight"] == expected.weight


class TestMalformedRequests:
    """Raw bytes the hand-rolled HTTP reader must answer, not die on."""

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n{}", 413),
            (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 100_000 + b"\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Le", 408),
            (b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{", 408),
        ],
        ids=["non-integer-length", "negative-length", "oversized-body",
             "overlong-header", "stalled-in-headers", "short-body"],
    )
    def test_answered_with_a_status_and_no_traceback(
        self, service, monkeypatch, caplog, capfd, raw, status
    ):
        svc, client = service
        monkeypatch.setattr(server_module, "REQUEST_TIMEOUT", 0.3)
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(raw)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        deadline = time.monotonic() + 5.0
        while svc.pending_connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert svc.pending_connections == 0
        assert not caplog.records
        assert capfd.readouterr().err == ""
        assert client.query("demo", QUERY, RANKING, phis=[0.5]).status == 200


class TestBudgetsAndDegradation:
    def test_all_phis_budget_exhausted_504(self, service):
        _, client = service
        response = client.query(
            "demo", QUERY, RANKING, phis=[0.5], max_rows=50, on_budget="error"
        )
        assert response.status == 504
        error = response.payload["results"][0]["error"]
        assert error["type"] == "BudgetExceededError"
        assert error["budget"] == "rows"
        assert error["checkpoint"]

    def test_degraded_result_is_flagged_per_request(self, service):
        _, client = service
        response = client.query(
            "demo", QUERY, DEGRADE_RANKING, phis=[0.5], **DEGRADE_KNOBS
        )
        assert response.status == 200
        entry = response.payload["results"][0]
        assert entry["degraded"] is True
        assert entry["strategy"] == "sampling"
        assert "->" in entry["degradation"]
        assert response.payload["degraded"] is True

    def test_service_default_guardrail_applies_unless_the_request_sets_its_own(
        self, workload
    ):
        service = QuantileService(ServiceConfig(default_max_rows=10))
        service.pool.register("demo", workload.db)
        handle = ServiceThread(service).start()
        try:
            client = ServiceClient.from_url(handle.url)
            defaulted = client.query("demo", QUERY, RANKING, phis=[0.5])
            assert defaulted.status == 504
            assert defaulted.payload["results"][0]["error"]["budget"] == "rows"
            assert client.query("demo", QUERY, RANKING, phis=[0.5], max_rows=10**9).status == 200
        finally:
            handle.shutdown()

    def test_server_survives_budget_errors(self, service):
        _, client = service
        for _ in range(3):
            client.query("demo", QUERY, RANKING, phis=[0.5], max_rows=10, on_budget="error")
        assert client.health().status == 200
        assert client.query("demo", QUERY, RANKING, phis=[0.5]).status == 200


class TestConcurrency:
    def test_same_key_burst_shares_one_prepared_query(self, workload):
        svc = QuantileService(ServiceConfig(max_inflight=8, max_queue=16, queue_timeout=10.0))
        svc.pool.register("demo", workload.db)
        handle = ServiceThread(svc).start()
        try:
            client = ServiceClient.from_url(handle.url)
            phis = [0.1 * (position + 1) for position in range(8)]
            responses = [None] * 8

            def issue(position):
                responses[position] = client.query(
                    "demo", QUERY, RANKING, phis=[phis[position]]
                )

            # All eight hold a slot at once, then run together on one cold
            # prepared query, switching threads often enough to interleave
            # its preparation and cache publishes.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                burst(
                    svc, client, issue, 8,
                    until=lambda stats: stats["admission"]["inflight"] == 8,
                )
            finally:
                sys.setswitchinterval(interval)
            assert [r.status for r in responses] == [200] * 8
            direct = Engine(workload.db).prepare(QUERY, RANKING)
            assert [r.payload["results"][0]["weight"] for r in responses] == [
                direct.quantile(phi).weight for phi in phis
            ]
            assert svc.pool.prepared_count == 1
        finally:
            handle.shutdown()


class TestShedding:
    def test_overload_sheds_with_retry_after(self, workload):
        svc = QuantileService(
            ServiceConfig(max_inflight=1, max_queue=0, queue_timeout=0.2)
        )
        svc.pool.register("demo", workload.db)
        handle = ServiceThread(svc).start()
        try:
            client = ServiceClient.from_url(handle.url)

            responses = [None] * 8

            def issue(position):
                # Identical requests: each one still needs its own slot.
                responses[position] = client.query("demo", QUERY, RANKING, phis=[0.5])

            # One slot, no queue, and the execution holding the slot parked
            # until admission has turned someone away — which it must,
            # at once or after queue_timeout, however short an execution is.
            burst(svc, client, issue, 8, until=lambda stats: stats["admission"]["shed"] >= 1)
            statuses = sorted(r.status for r in responses)
            assert 429 in statuses
            assert 200 in statuses  # overload never blanks the service out
            for response in responses:
                if response.status == 429:
                    assert response.payload["shed"] is True
                    assert response.retry_after is not None
                    assert response.retry_after > 0
            assert client.health().status == 200
            stats = client.stats()
            assert stats["requests"]["by_status"].get("shed", 0) >= 1
        finally:
            handle.shutdown()


class TestRecords:
    def test_every_request_record_is_structured(self, service):
        _, client = service
        client.query("demo", QUERY, RANKING, phis=[0.5])
        records = client.stats()["recent"]
        assert records
        record = records[-1]
        for key in (
            "request_id", "db", "query", "ranking", "phis", "status",
            "http_status", "queue_seconds", "execute_seconds", "total_seconds",
            "degraded", "degradation_rungs", "checkpoints",
        ):
            assert key in record
        assert record["status"] == "ok"
        assert record["checkpoints"] > 0
        assert json.dumps(record)  # JSON-serializable end to end

    def test_degraded_request_recorded_with_rungs(self, service):
        _, client = service
        client.query("demo", QUERY, DEGRADE_RANKING, phis=[0.5], **DEGRADE_KNOBS)
        record = client.stats()["recent"][-1]
        assert record["status"] == "degraded"
        assert record["degraded"] is True
        assert record["degradation_rungs"]

    def test_counters_aggregate_by_status(self, service):
        _, client = service
        client.query("demo", QUERY, RANKING, phis=[0.5])
        client.query("nope", QUERY, RANKING, phis=[0.5])
        counters = client.stats()["requests"]
        assert counters["total"] >= 2
        assert counters["by_status"].get("ok", 0) >= 1
        assert counters["by_status"].get("error", 0) >= 1


class TestDrainCancellation:
    def test_drain_token_cancels_batch_cooperatively(self, workload):
        svc = QuantileService(ServiceConfig())
        svc.pool.register("demo", workload.db)
        svc._drain_token.cancel("test drain")
        outcomes, _, _, _ = svc._run_batch("demo", QUERY, RANKING, {}, "phi", (0.5,))
        assert isinstance(outcomes[0.5], ExecutionCancelledError)
