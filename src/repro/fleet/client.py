"""The typed fleet client — the one public API over the HTTP front.

Every fleet-facing caller in the tree (the CLI's ``--url`` load mode,
the examples, ad-hoc scripts) goes through :class:`FleetClient`; this is
deliberately the **only** module that speaks raw :mod:`http.client`, so
the wire contract has exactly one implementation to audit.

Results are small frozen dataclasses mirroring the server's JSON —
typed, unit-suffixed, and stable across executors. Failures raise
:class:`FleetAPIError` carrying the server's versioned error envelope::

    {"error": {"code": "...", "message": "...", "path": "..."}}

Any other error body (including the retired ``type``/``details``
envelope) surfaces as ``code="unknown"`` carrying the raw payload.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from typing import Any, Optional
from urllib.parse import urlsplit

from ..obs.exposition import MetricFamilySamples, parse_exposition

__all__ = [
    "FleetAPIError",
    "HealthInfo",
    "JobOutcome",
    "SubmitResult",
    "QuoteResult",
    "ShardStats",
    "StatsResult",
    "TenantInfo",
    "MetricsResult",
    "FleetClient",
    "parse_error",
]


class FleetAPIError(RuntimeError):
    """A non-2xx response from the fleet API, envelope attached."""

    def __init__(self, status: int, code: str, message: str, path: str) -> None:
        self.status = status
        self.code = code
        self.path = path
        super().__init__(f"HTTP {status} {code}: {message} (at {path})")


def parse_error(status: int, payload: Any) -> FleetAPIError:
    """Turn an error response body into a :class:`FleetAPIError`.

    Reads the versioned envelope (``code``/``message``/``path``); any
    other body becomes ``code="unknown"`` carrying the raw payload.
    """
    err = payload.get("error", {}) if isinstance(payload, dict) else {}
    if "code" in err:
        return FleetAPIError(
            status,
            str(err.get("code", "unknown")),
            str(err.get("message", "")),
            str(err.get("path", "")),
        )
    return FleetAPIError(status, "unknown", json.dumps(payload)[:200], "")


@dataclass(frozen=True)
class HealthInfo:
    """GET /v1/health."""

    status: str
    n_shards: int
    n_tenants: int
    executor: str = "inprocess"


@dataclass(frozen=True)
class JobOutcome:
    """One job's admission outcome inside a submit response."""

    job_id: int
    decision: str
    reason: Optional[str]
    promise_s: Optional[float]
    est_completion_s: float
    slack_s: float


@dataclass(frozen=True)
class SubmitResult:
    """POST /v1/jobs."""

    tenant_id: str
    shard: int
    arrival_time_s: float
    outcomes: tuple[JobOutcome, ...]

    @property
    def n_admitted(self) -> int:
        return sum(1 for o in self.outcomes if o.decision != "reject")


@dataclass(frozen=True)
class QuoteResult:
    """POST /v1/quotes."""

    tenant_id: str
    shard: int
    promise_s: Optional[float]
    est_proc_s: float
    est_completion_s: float
    slack_s: float


@dataclass(frozen=True)
class ShardStats:
    """One shard's live counters inside GET /v1/stats."""

    index: int
    tenant_ids: tuple[str, ...]
    counters: dict[str, Any]
    lost: Optional[str] = None


@dataclass(frozen=True)
class StatsResult:
    """GET /v1/stats."""

    fleet: dict[str, Any]
    shards: tuple[ShardStats, ...]


@dataclass(frozen=True)
class TenantInfo:
    """One row of GET /v1/tenants."""

    tenant_id: str
    sla_class: str
    shard: int
    quota_jobs: Optional[int]
    quota_remaining: Optional[int]
    admitted_jobs: int


@dataclass(frozen=True)
class MetricsResult:
    """GET /v1/metrics, parsed from the Prometheus text exposition."""

    families: tuple[MetricFamilySamples, ...]

    def family(self, name: str) -> MetricFamilySamples:
        for family in self.families:
            if family.name == name:
                return family
        raise KeyError(f"no metric family {name!r} in scrape")

    def value(self, name: str, **labels: str) -> float:
        """Value of one sample: ``metrics.value("fleet_shards")``."""
        return self.family(name).value(**labels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(family.name for family in self.families)


class FleetClient:
    """A persistent-connection client for one fleet API server.

    One :class:`http.client.HTTPConnection` under the hood (the server
    speaks HTTP/1.1 keep-alive); a dropped connection is re-established
    once per request. Usable as a context manager.
    """

    def __init__(self, url: str, timeout_s: float = 30.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"FleetClient speaks plain http, not {parts.scheme!r}")
        if not parts.hostname:
            raise ValueError(f"no host in fleet url {url!r}")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    def _roundtrip(
        self, method: str, path: str, payload: Optional[bytes], headers: dict
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request/response with the reconnect-once policy."""
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout_s
                )
            try:
                self._conn.request(method, path, body=payload, headers=headers)
                response = self._conn.getresponse()
                return response, response.read()
            except (http.client.HTTPException, ConnectionError, OSError):
                # One reconnect per request: a keep-alive the server
                # closed is routine, a second failure is real.
                self.close()
                if attempt == 1:
                    raise
        raise AssertionError("unreachable")

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> Any:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        response, raw = self._roundtrip(method, path, payload, headers)
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            raise FleetAPIError(
                response.status, "invalid_response", raw[:200].decode("latin-1"), path
            ) from None
        if response.status >= 400:
            raise parse_error(response.status, decoded)
        return decoded

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def health(self) -> HealthInfo:
        data = self._request("GET", "/v1/health")
        return HealthInfo(
            status=str(data.get("status", "")),
            n_shards=int(data.get("n_shards", 0)),
            n_tenants=int(data.get("n_tenants", 0)),
            executor=str(data.get("executor", "inprocess")),
        )

    def tenants(self) -> tuple[TenantInfo, ...]:
        data = self._request("GET", "/v1/tenants")
        return tuple(
            TenantInfo(
                tenant_id=str(row["tenant"]),
                sla_class=str(row["sla_class"]),
                shard=int(row["shard"]),
                quota_jobs=row.get("quota_jobs"),
                quota_remaining=row.get("quota_remaining"),
                admitted_jobs=int(row.get("admitted_jobs", 0)),
            )
            for row in data.get("tenants", [])
        )

    def metrics(self) -> MetricsResult:
        """Scrape ``GET /v1/metrics`` into typed metric families.

        The endpoint speaks Prometheus text, not the JSON envelope, so
        this bypasses :meth:`_request`; error statuses still carry the
        JSON envelope and raise :class:`FleetAPIError` as usual.
        """
        response, raw = self._roundtrip("GET", "/v1/metrics", None, {})
        if response.status >= 400:
            try:
                decoded = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                decoded = {}
            raise parse_error(response.status, decoded)
        try:
            families = parse_exposition(raw.decode("utf-8"))
        except ValueError as exc:
            raise FleetAPIError(
                response.status, "invalid_exposition", str(exc), "/v1/metrics"
            ) from None
        return MetricsResult(families=families)

    def stats(self) -> StatsResult:
        data = self._request("GET", "/v1/stats")
        return StatsResult(
            fleet=dict(data.get("fleet", {})),
            shards=tuple(
                ShardStats(
                    index=int(row["index"]),
                    tenant_ids=tuple(row.get("tenants", ())),
                    counters=dict(row.get("stats", {})),
                    lost=row.get("lost"),
                )
                for row in data.get("shards", [])
            ),
        )

    def submit(
        self,
        tenant_id: str,
        n_jobs: int,
        arrival_time_s: Optional[float] = None,
    ) -> SubmitResult:
        body: dict[str, Any] = {"tenant": tenant_id, "n_jobs": n_jobs}
        if arrival_time_s is not None:
            body["arrival_time_s"] = arrival_time_s
        data = self._request("POST", "/v1/jobs", body)
        return SubmitResult(
            tenant_id=str(data["tenant"]),
            shard=int(data["shard"]),
            arrival_time_s=float(data["arrival_time_s"]),
            outcomes=tuple(
                JobOutcome(
                    job_id=int(o["job_id"]),
                    decision=str(o["decision"]),
                    reason=o.get("reason"),
                    promise_s=o.get("promise_s"),
                    est_completion_s=float(o["est_completion_s"]),
                    slack_s=float(o["slack_s"]),
                )
                for o in data.get("outcomes", [])
            ),
        )

    def quote(self, tenant_id: str) -> QuoteResult:
        data = self._request("POST", "/v1/quotes", {"tenant": tenant_id})
        return QuoteResult(
            tenant_id=str(data["tenant"]),
            shard=int(data["shard"]),
            promise_s=data.get("promise_s"),
            est_proc_s=float(data["est_proc_s"]),
            est_completion_s=float(data["est_completion_s"]),
            slack_s=float(data["slack_s"]),
        )
