#!/usr/bin/env python
"""Service smoke test: real server process, concurrent clients, clean drain.

CI runs this as its own job.  The script:

1. writes a 3-path workload to CSV and starts ``python -m repro.cli serve``
   as a real subprocess on a free port,
2. waits for readiness, then sweeps it with concurrent clients — a mix of
   same-key quantile requests sharing one prepared query, per-request budget
   errors, and degraded runs — asserting every response is structured,
   then repeats one request, which must be served from the cache with the
   first answer,
3. requests a graceful shutdown over HTTP and requires the server process
   to exit 0 (``EXIT_OK``), which the server only reports when the drain
   finished with **zero orphaned tasks**.

Exit status: 0 on success, 1 with a diagnostic on any violated invariant.
Run locally with ``PYTHONPATH=src python scripts/service_smoke.py``.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.data.io import save_database_csv  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.workloads.path import path_workload  # noqa: E402

QUERY = "R1(x1,x2), R2(x2,x3), R3(x3,x4)"
RANKING = "sum(x1, x2)"
DEGRADE_RANKING = "max(x1, x4)"
CLIENTS = 8


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_ready(client: ServiceClient, deadline: float = 30.0) -> None:
    started = time.monotonic()
    while time.monotonic() - started < deadline:
        try:
            if client.ready().status == 200:
                return
        except OSError:
            pass
        time.sleep(0.1)
    raise AssertionError("server never became ready")


def sweep(client: ServiceClient) -> list:
    """Concurrent mixed-traffic sweep; returns one response per worker."""
    responses = [None] * CLIENTS

    def issue(worker: int) -> None:
        if worker % 4 == 3:
            # Tight row budget with the error policy: a structured 504.
            responses[worker] = client.query(
                "smoke", QUERY, RANKING, phis=[0.5],
                max_rows=40, on_budget="error", seed=worker,
            )
        elif worker % 4 == 2:
            # Degradation recipe: answers 200 with degraded=True.
            responses[worker] = client.query(
                "smoke", QUERY, DEGRADE_RANKING, phis=[0.5],
                epsilon=0.3, max_rows=1500, on_budget="degrade", seed=7,
            )
        else:
            # Identical knobs: these callers share one prepared query.
            responses[worker] = client.query(
                "smoke", QUERY, RANKING, phis=[(worker + 1) / (CLIENTS + 1)]
            )

    threads = [threading.Thread(target=issue, args=(w,)) for w in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses


def main() -> int:
    port = free_port()
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "smoke"
        save_database_csv(path_workload(3, 50, 6, seed=5).db, data_dir)
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--data", f"smoke={data_dir}",
                "--port", str(port),
                "--max-inflight", "2",
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        try:
            client = ServiceClient("127.0.0.1", port)
            wait_ready(client)

            responses = sweep(client)
            assert all(r is not None for r in responses), "a client never returned"
            statuses = sorted(r.status for r in responses)
            print(f"sweep statuses: {statuses}")
            assert all(status in (200, 429, 504) for status in statuses), statuses
            assert statuses.count(200) >= 1, "no request succeeded"
            for response in responses:
                if response.status == 504:
                    error = response.payload["results"][0]["error"]
                    assert error["type"] == "BudgetExceededError", error
            degraded = [
                r for r in responses
                if r.status == 200 and r.payload.get("degraded")
            ]
            assert degraded, "the degradation recipe should have degraded"

            # A repeated identical request is a replay of memoized steps,
            # answered on the event loop with the first request's result.
            first = client.query("smoke", QUERY, RANKING, phis=[0.3, 0.7])
            again = client.query("smoke", QUERY, RANKING, phis=[0.3, 0.7])
            assert first.status == again.status == 200, (first.payload, again.payload)
            assert again.payload["results"] == first.payload["results"], (
                "the replayed answer diverged from the first one"
            )
            served = client.stats()["recent"][-1]["served"]
            assert served == "cache", served
            print("repeated request: served from the cache (answer matches)")

            # Sharded parallel execution: the record must report its shard
            # count, and the answer must match the serial one bit for bit.
            serial = client.query("smoke", QUERY, RANKING, phis=[0.5])
            parallel = client.query(
                "smoke", QUERY, RANKING, phis=[0.5], parallel=2
            )
            assert parallel.status == 200, parallel.payload
            assert parallel.payload["parallel"] == 2, parallel.payload
            assert parallel.payload["shards"] == 2, parallel.payload
            assert (
                parallel.payload["results"][0]["weight"]
                == serial.payload["results"][0]["weight"]
            ), "parallel answer diverged from serial"
            print(
                "parallel request: shards =", parallel.payload["shards"],
                "(answer matches serial)",
            )

            stats = client.stats()
            print(
                "kernel backend:", stats["kernel_backend"],
                "| pool:", stats["pool"],
                "| requests:", stats["requests"]["by_status"],
            )
            assert stats["kernel_backend"] == "python", stats
            for record in stats["recent"]:
                assert record["status"] in (
                    "ok", "degraded", "shed", "error", "cancelled"
                ), record
            assert client.health().status == 200

            assert client.shutdown().status == 202
            exit_code = server.wait(timeout=30)
            assert exit_code == 0, (
                f"server exited {exit_code}; 0 means clean drain with "
                "zero orphaned tasks"
            )
            print("graceful shutdown: exit 0 (clean drain, zero orphaned tasks)")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
