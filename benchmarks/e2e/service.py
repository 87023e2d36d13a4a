"""Child-process side of ``service_warm``: a real ``serve`` subprocess.

Within the window it

* spawns ``python -m repro.cli serve`` over the CSV dump of the path rows and
  waits for ``/readyz`` -- many times, as *spawn probes* that are shut down
  again at once, half of them before and half after everything else
  (``setup_s``);
* on one more server, fills the caches (the SUM pair's 19 phi asked as
  ``path_sum_cold`` asks them, then all 19 phi of the MAX and LEX pairs);
* has one client ask for all 19 phi of the SUM pair in one request, again
  and again (``batch_s``: the phi-batch a warm service answers);
* runs the **closed loop**: two client threads, each sending its next request
  when the previous one returned (one connection per request, the server is
  ``Connection: close``), one seeded phi x pair per request, every one a
  pivot/answer-cache hit (``throughput_rps``, ``req_p50_ms``).

Every response is compared with the oracle's answer.

The load generator is the benchmark's own ``http.client`` code, not
``repro.service.client``, so a later change to the program cannot change the
load it is measured under.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from batch import layer_metrics, percentile, summary
from tracing import self_times
from workloads import PHI_FIRST, PHI_ORDER, PHI_REST, WorkloadSpec, generate_rows, write_csv_database

clock = time.perf_counter
HERE = Path(__file__).resolve().parent
CLIENTS = 2
DB_NAME = "bench"


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``serve`` subprocess; ``trace_file`` selects the traced launcher."""

    def __init__(self, data_dir: Path, log_file: Path, trace_file: Path | None) -> None:
        self.port = _free_port()
        launcher = (
            [str(HERE / "traced_serve.py"), str(trace_file)]
            if trace_file
            else ["-m", "repro.cli"]
        )
        self._log = log_file.open("a")
        spawned = clock()
        self.process = subprocess.Popen(
            [
                sys.executable, *launcher, "serve",
                "--data", f"{DB_NAME}={data_dir}", "--port", str(self.port),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.ready_s = clock() - spawned

    def _wait_ready(self, deadline: float = 60.0) -> None:
        started = clock()
        while clock() - started < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited {self.process.returncode} before ready")
            try:
                if self.request("GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became ready")

    def request(self, method: str, path: str, body: Any = None) -> tuple[int, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def query(self, ranking: str, phis: list[float], query: str) -> tuple[int, Any]:
        return self.request(
            "POST", "/query",
            {"db": DB_NAME, "query": query, "ranking": ranking, "phis": phis},
        )

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def shutdown(self) -> int:
        """Graceful drain; returns the server's exit code (0 = clean)."""
        try:
            self.request("POST", "/admin/shutdown")
            return self.process.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log.close()


class ServiceRunner:
    def __init__(self, spec: WorkloadSpec, job: dict[str, Any]) -> None:
        self.spec = spec
        self.seed = job["seed"]
        self.out_dir = Path(job["out_dir"])
        self.data_dir = self.out_dir / f"csv_{spec.name}"
        write_csv_database(generate_rows(spec, self.seed), self.data_dir)
        self.want: dict[tuple[str, float], tuple[Any, int, int]] = {}
        for ranking in spec.rankings:
            oracle = job["expected"][ranking]
            for entry in oracle["quantiles"]:
                self.want[ranking, entry["phi"]] = (
                    entry["weight"], entry["target_index"], oracle["total_answers"],
                )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)

    def check(self, ranking: str, phis: list[float], status: int, payload: Any) -> None:
        """One operation per phi: 200, exact, not degraded, oracle's answer."""
        with self._lock:
            self.attempted += len(phis)
        results = payload.get("results", []) if status == 200 else []
        if len(results) != len(phis) or payload.get("degraded"):
            for _ in phis:
                self.fail(f"{ranking} phis={phis}: status={status} payload={str(payload)[:200]}")
            return
        for phi, result in zip(phis, results):
            got = (result.get("weight"), result.get("target_index"), result.get("total_answers"))
            if (
                result.get("phi") != phi
                or list(got) != list(self.want[ranking, phi])
                or not result.get("exact")
                or result.get("degraded")
            ):
                self.fail(f"{ranking} phi={phi}: got {result}; oracle {self.want[ranking, phi]}")

    # ------------------------------------------------------------------ #
    def start_server(self, trace_file: Path | None = None) -> Server:
        return Server(self.data_dir, self.out_dir / f"server_{self.spec.name}.log", trace_file)

    def spawn_probe(self) -> float:
        """Spawn -> ready -> graceful shutdown, no query: one sample of
        ``setup_s``.  Process starts spread widest of all, hence many probes."""
        server = self.start_server()
        self.stop(server)
        return server.ready_s

    def cold_sweep(self, server: Server) -> float:
        """Fill the caches: the SUM pair's batch exactly as ``path_sum_cold``
        asks it (0.5 first, paying the lazy prepare), then the other pairs."""
        sum_pair, *others = self.spec.rankings
        begun = clock()
        self.check(sum_pair, [PHI_FIRST], *server.query(sum_pair, [PHI_FIRST], self.spec.query))
        self.check(sum_pair, PHI_REST, *server.query(sum_pair, PHI_REST, self.spec.query))
        swept = clock() - begun
        for ranking in others:
            self.check(ranking, PHI_ORDER, *server.query(ranking, PHI_ORDER, self.spec.query))
        return swept

    def stop(self, server: Server) -> None:
        self.attempted += 1
        code = server.shutdown()
        if code != 0:
            self.fail(f"server exited {code} after a graceful shutdown request")

    # ------------------------------------------------------------------ #
    def closed_loop(
        self, server: Server, clients: int, whole_batch: bool,
        seconds: float, slice_seconds: float,
    ) -> dict[str, Any]:
        """``clients`` threads, each sending its next request when the last
        one returned: all 19 phi of the SUM pair (``whole_batch``) or one
        seeded phi of one seeded pair.  Every request is a cache hit."""
        samples: list[list[tuple[float, float, float, float]]] = [[] for _ in range(clients)]
        rankings = self.spec.rankings
        started = clock()
        deadline = started + seconds

        def client(worker: int) -> None:
            rng = random.Random(self.seed * 1000 + worker)
            mine = samples[worker]
            while True:
                if whole_batch:
                    ranking, phis = rankings[0], PHI_ORDER
                else:
                    ranking = rankings[rng.randrange(len(rankings))]
                    phis = [PHI_ORDER[rng.randrange(len(PHI_ORDER))]]
                begun = clock()
                try:
                    status, payload = server.query(ranking, phis, self.spec.query)
                except (OSError, ValueError) as error:
                    status, payload = 0, {"error": repr(error)}
                ended = clock()
                self.check(ranking, phis, status, payload)
                if status == 200:
                    mine.append(
                        (ended - started, ended - begun,
                         payload["queue_seconds"], payload["execute_seconds"])
                    )
                if ended >= deadline:
                    return

        cpu_before = server.cpu_seconds()
        threads = [threading.Thread(target=client, args=(w,)) for w in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu_used = server.cpu_seconds() - cpu_before

        merged = sorted(sample for mine in samples for sample in mine)
        slices = int(seconds / slice_seconds)
        per_slice: list[list[tuple[float, float]]] = [[] for _ in range(slices)]
        for ended, latency, _, _ in merged:
            if ended < slices * slice_seconds:
                per_slice[int(ended / slice_seconds)].append((ended, latency))
        per_slice = [s for s in per_slice if len(s) > 1]
        return {
            "req_p99_ms": percentile([sample[1] for sample in merged], 0.99) * 1e3,
            "req_samples": len(merged),
            # Completions per second between a slice's first and last one:
            # a rate that is not quantized to whole requests per slice.
            "slice_rps": [(len(s) - 1) / (s[-1][0] - s[0][0]) for s in per_slice],
            "slice_p50_ms": [
                statistics.median(latency for _, latency in s) * 1e3 for s in per_slice
            ],
            "queue_ms_p50": statistics.median(s[2] for s in merged) * 1e3,
            "execute_ms_p50": statistics.median(s[3] for s in merged) * 1e3,
            "overhead_ms_p50": statistics.median(s[1] - s[2] - s[3] for s in merged) * 1e3,
            "server_cpu_ms_per_req": cpu_used / len(merged) * 1e3,
        }


def run(spec: WorkloadSpec, job: dict[str, Any]) -> dict[str, Any]:
    runner = ServiceRunner(spec, job)
    traced = bool(job["trace"])
    trace_file = Path(job["out_dir"]) / f"trace_{spec.name}.json"
    seconds, slice_seconds = job["seconds"], job["slice_seconds"]
    # Spawn probes take probe_share of the window, half before the measured
    # server and half after it, so that a noisy stretch of the machine cannot
    # cover all of them.
    probe_seconds = job["probe_share"] * seconds / 2
    setups: list[float] = []
    untraced_sweep = 0.0
    server = None
    started = clock()
    try:
        while len(setups) < job["min_probes"] or clock() - started < probe_seconds:
            setups.append(runner.spawn_probe())
        if traced:
            # The base of trace.overhead_ratio: one untraced cold sweep.
            server = runner.start_server()
            untraced_sweep = runner.cold_sweep(server)
            runner.stop(server)
        server = runner.start_server(trace_file if traced else None)
        cold_sweep = runner.cold_sweep(server)
        batches = runner.closed_loop(
            server, 1, True, job["warm_batch_seconds"], slice_seconds
        )
        loop_seconds = max(
            seconds - probe_seconds - (clock() - started), 3 * slice_seconds
        )
        loop = runner.closed_loop(server, CLIENTS, False, loop_seconds, slice_seconds)
        stats = server.request("GET", "/stats")[1]
        peak = server.peak_rss_mb()
        ready = server.ready_s
        runner.stop(server)
        if not traced:
            setups.append(ready)
        while clock() - started < seconds:
            setups.append(runner.spawn_probe())
    finally:
        if server:
            server.kill()

    detail = {
        "spawns": len(setups),
        "loop_seconds": loop_seconds,
        "clients": CLIENTS,
        "cold_sweep_s": cold_sweep,
        "req_p99_ms": loop["req_p99_ms"],
        "req_samples": loop["req_samples"],
        "batch_samples": batches["req_samples"],
        "kernel_backend": stats["kernel_backend"],
        "summary": {
            "setup_s": summary(setups),
            "batch_slice_p50_ms": summary(batches["slice_p50_ms"]),
            "slice_rps": summary(loop["slice_rps"]),
            "slice_p50_ms": summary(loop["slice_p50_ms"]),
        },
        "samples": {
            "setup_s": setups,
            "batch_slice_p50_ms": batches["slice_p50_ms"],
            "slice_rps": loop["slice_rps"],
            "slice_p50_ms": loop["slice_p50_ms"],
        },
    }
    if not traced:
        # Best spawn / best loop slice, as in batch.py (see README).
        metrics = {
            "setup_s": min(setups),
            "batch_s": min(batches["slice_p50_ms"]) / 1e3,
            "throughput_rps": max(loop["slice_rps"]),
            "req_p50_ms": min(loop["slice_p50_ms"]),
            "peak_rss_mb": peak,
        }
    else:
        trace = json.loads(trace_file.read_text())
        busy, calls = self_times(trace["spans"])
        coalescing, pool = stats["coalescing"], stats["pool"]
        metrics = layer_metrics(busy, calls, trace["counters"])
        metrics.update(
            {
                "service.ready_s": ready,
                "service.warmup_s": cold_sweep,
                "service.queue_ms_p50": loop["queue_ms_p50"],
                "service.execute_ms_p50": loop["execute_ms_p50"],
                "service.overhead_ms_p50": loop["overhead_ms_p50"],
                "service.server_cpu_ms_per_req": loop["server_cpu_ms_per_req"],
                "service.coalesced_share": coalescing["merged_requests"] / max(coalescing["requests"], 1),
                "service.pool_hit_rate": pool["hits"] / max(pool["hits"] + pool["misses"], 1),
                "service.shed": stats["admission"]["shed"],
                "trace.overhead_ratio": cold_sweep / untraced_sweep,
            }
        )
        detail.update(
            untraced_sweep_s=untraced_sweep,
            spans=len(trace["spans"]),
            trace_file=str(trace_file),
        )
    return {
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "detail": detail,
    }
