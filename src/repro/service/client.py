"""A small stdlib client for the quantile service (tests, benches, CLI).

Thin by design: one :class:`http.client.HTTPConnection` per request (the
server is ``Connection: close``), JSON in and out, no retries — retry
policy belongs to the caller, guided by the server's ``retry_after`` hints.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ServiceResponse:
    """One HTTP exchange: status code, parsed JSON body, response headers."""

    status: int
    payload: dict[str, Any]
    headers: dict[str, str]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def shed(self) -> bool:
        return self.status == 429

    @property
    def retry_after(self) -> float | None:
        value = self.headers.get("retry-after")
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:  # pragma: no cover - non-numeric header
            return None


class ServiceClient:
    """Synchronous client for one service instance."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    @classmethod
    def from_url(cls, url: str, timeout: float = 30.0) -> "ServiceClient":
        """Build a client from an ``http://host:port`` URL."""
        stripped = url.split("//", 1)[-1].rstrip("/")
        host, _, port = stripped.rpartition(":")
        return cls(host or stripped, int(port), timeout=timeout)

    # ------------------------------------------------------------------ #
    def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> ServiceResponse:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                parsed = json.loads(raw.decode() or "{}")
            except ValueError:  # pragma: no cover - non-JSON error body
                parsed = {"raw": raw.decode(errors="replace")}
            return ServiceResponse(
                status=response.status,
                payload=parsed,
                headers={key.lower(): value for key, value in response.getheaders()},
            )
        finally:
            connection.close()

    # ------------------------------------------------------------------ #
    def health(self) -> ServiceResponse:
        return self.request("GET", "/healthz")

    def ready(self) -> ServiceResponse:
        return self.request("GET", "/readyz")

    def stats(self) -> dict[str, Any]:
        return self.request("GET", "/stats").payload

    def databases(self) -> list[str]:
        return self.request("GET", "/databases").payload.get("databases", [])

    def query(
        self,
        db: str,
        query: str,
        ranking: str,
        phis: Any = None,
        index: int | None = None,
        **knobs: Any,
    ) -> ServiceResponse:
        """POST one quantile (or selection) request.

        ``knobs`` may carry ``epsilon``, ``strategy``, ``seed``, ``timeout``,
        ``max_rows``, ``on_budget`` — the overrides the service accepts.
        """
        body: dict[str, Any] = {"db": db, "query": query, "ranking": ranking}
        if phis is not None:
            body["phis"] = phis
        if index is not None:
            body["index"] = index
        body.update({key: value for key, value in knobs.items() if value is not None})
        return self.request("POST", "/query", body)

    def shutdown(self) -> ServiceResponse:
        """Ask the server to begin a graceful drain."""
        return self.request("POST", "/admin/shutdown")
