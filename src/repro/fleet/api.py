"""HTTP/JSON front for the fleet: submit, quote, stats — stdlib only.

A deliberately thin service layer over :class:`~repro.fleet.sharding.
FleetManager`: one single-threaded :class:`http.server.HTTPServer`
(submissions mutate shard state, so serialising requests is the
correctness-preserving default, not a limitation), JSON in and out,
every request body schema-validated *before* it can touch a shard. The
handler talks to the **manager only** — never to shard objects — so the
same front serves the in-process and the multiprocess executor
unchanged.

Endpoints:

========  ====================  ==========================================
Method    Path                  Behaviour
========  ====================  ==========================================
GET       ``/v1/health``        liveness + shard count + worker health
GET       ``/v1/tenants``       tenant directory with quota state
GET       ``/v1/stats``         live fleet-wide and per-shard counters
GET       ``/v1/metrics``       Prometheus text exposition (telemetry plane)
POST      ``/v1/jobs``          submit ``n_jobs`` for a tenant
POST      ``/v1/quotes``        price one job for a tenant, no admission
========  ====================  ==========================================

Error contract — **one versioned envelope** across every failure
status::

    {"error": {"code": "<machine-readable>", "message": "<human>",
               "path": "<json-pointer-ish body path, or request path>"}}

* **400** ``invalid_json`` / ``empty_body`` / ``schema_violation`` /
  ``invalid_request`` — malformed bodies never touch a shard; schema
  violations carry the offending body path (``$.n_jobs``);
* **404** ``unknown_tenant`` / ``not_found``;
* **413** ``body_too_large``;
* **429** ``quota_exhausted`` — the tenant's per-run quota is spent;
* **500** ``internal`` — and the server keeps serving;
* **503** ``shard_lost`` / ``starting`` — a worker died (multiprocess
  executor) or the fleet is still booting behind the bound socket.

:class:`~repro.fleet.client.FleetClient` is the typed consumer of this
contract. A request body that stops short of its ``Content-Length`` is
a 400 ``invalid_request`` once :attr:`_Handler.timeout` expires, so a
torn client cannot wedge the single-threaded front.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Callable, Iterator, Optional, Union

from ..obs.exposition import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs.exposition import render_exposition
from .executor import ShardLostError
from .schema import SchemaError, validate
from .sharding import FleetConfig, FleetManager, QuotaExceededError
from .tenants import TenantRegistry, UnknownTenantError, default_registry

__all__ = [
    "SUBMIT_SCHEMA",
    "QUOTE_SCHEMA",
    "FleetAPIServer",
    "serve_in_thread",
    "serve_fleet",
]

#: Body of POST /v1/jobs. ``n_jobs`` is a count, not job bodies: the
#: service synthesises documents from its seeded per-shard substream, so
#: a submission's effect is reproducible from the request alone.
SUBMIT_SCHEMA: dict = {
    "type": "object",
    "required": ["tenant", "n_jobs"],
    "additionalProperties": False,
    "properties": {
        "tenant": {"type": "string", "minLength": 1, "maxLength": 128},
        "n_jobs": {"type": "integer", "minimum": 1, "maximum": 10_000},
        "arrival_time_s": {"type": "number", "minimum": 0},
    },
}

#: Body of POST /v1/quotes.
QUOTE_SCHEMA: dict = {
    "type": "object",
    "required": ["tenant"],
    "additionalProperties": False,
    "properties": {
        "tenant": {"type": "string", "minLength": 1, "maxLength": 128},
    },
}

#: Cap on request bodies — a submit body is a few short fields; anything
#: larger is a client bug or abuse, refused before parsing.
MAX_BODY_BYTES = 64 * 1024

#: What a route returns: a JSON object, or exposition text for /v1/metrics.
Payload = Union[dict, str]


class _APIError(Exception):
    """A request failure with a wire status and enveloped error body.

    ``path`` locates the fault: a body path (``$.n_jobs``) for schema
    violations, the request path otherwise.
    """

    def __init__(
        self, status: int, code: str, message: str, path: str = ""
    ) -> None:
        self.status = status
        self.code = code
        self.message = message
        self.path = path
        super().__init__(message)

    def body(self, request_path: str) -> dict:
        return {
            "error": {
                "code": self.code,
                "message": self.message,
                "path": self.path or request_path,
            }
        }


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the owning server carries the fleet manager."""

    server: "FleetAPIServer"
    protocol_version = "HTTP/1.1"
    #: Socket timeout, seconds: bounds how long one client can hold the
    #: single-threaded server on a silent socket or a short body.
    timeout = 10.0

    # Quiet by default: the test suite and the CLI's --quiet mode both
    # run with logging off; serve_fleet turns it on for operators.
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send(self, status: int, payload: Payload) -> None:
        """A ``dict`` goes out as JSON, a ``str`` as exposition text."""
        if isinstance(payload, str):
            body, content_type = payload.encode("utf-8"), METRICS_CONTENT_TYPE
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise _APIError(400, "empty_body", "request body required")
        if length > MAX_BODY_BYTES:
            raise _APIError(
                413, "body_too_large", f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            raise _APIError(
                400, "invalid_request", "body shorter than Content-Length"
            ) from None
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _APIError(400, "invalid_json", f"body is not JSON: {exc}") from None

    def _manager(self) -> FleetManager:
        manager = self.server.manager
        if manager is None:
            raise _APIError(
                503, "starting", "fleet is still booting behind this socket"
            )
        return manager

    def _dispatch(
        self, handler: Optional[Callable[[], tuple[int, Payload]]]
    ) -> None:
        """Run one route (``None``: no such route) and send its reply,
        mapping every failure onto the one error envelope."""
        try:
            if handler is None:
                raise _APIError(404, "not_found", f"no route {self.path}")
            status, payload = handler()
        except _APIError as exc:
            error = exc
        except SchemaError as exc:
            error = _APIError(400, "schema_violation", exc.message, exc.path)
        except UnknownTenantError as exc:
            error = _APIError(
                404, "unknown_tenant", f"no such tenant: {exc.args[0]!r}"
            )
        except ShardLostError as exc:
            error = _APIError(503, "shard_lost", str(exc))
        except ValueError as exc:
            # Request-induced domain errors (e.g. an arrival time behind
            # the shard's virtual clock) are the client's fault, not ours.
            error = _APIError(400, "invalid_request", str(exc))
        except QuotaExceededError as exc:
            error = _APIError(429, "quota_exhausted", str(exc))
        except Exception as exc:  # noqa: BLE001 — a fault must not kill the server
            error = _APIError(500, "internal", f"{type(exc).__name__}: {exc}")
        else:
            self._send(status, payload)
            return
        self._send(error.status, error.body(self.path))

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        routes: dict[str, Callable[[], tuple[int, Payload]]] = {
            "/v1/health": self._get_health,
            "/v1/tenants": self._get_tenants,
            "/v1/stats": self._get_stats,
            "/v1/metrics": self._get_metrics,
        }
        self._dispatch(routes.get(self.path))

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        routes: dict[str, Callable[[], tuple[int, Payload]]] = {
            "/v1/jobs": self._post_jobs,
            "/v1/quotes": self._post_quotes,
        }
        self._dispatch(routes.get(self.path))

    # ------------------------------------------------------------------
    def _get_metrics(self) -> tuple[int, str]:
        """Prometheus text of the live fleet registry. Lost shards cost
        their own series only (the sweep marks them, it does not raise),
        so a degraded fleet still scrapes cleanly."""
        return 200, render_exposition(self._manager().metrics_registry())

    def _get_health(self) -> tuple[int, dict]:
        manager = self._manager()
        workers = [
            {
                "index": h.index,
                "alive": h.alive,
                "beat_age_s": None if math.isinf(h.beat_age_s) else h.beat_age_s,
            }
            for h in manager.health()
        ]
        return 200, {
            "status": "ok" if all(w["alive"] for w in workers) else "degraded",
            "n_shards": manager.n_shards,
            "n_tenants": len(manager.registry),
            "executor": manager.executor_name,
            "workers": workers,
        }

    def _get_tenants(self) -> tuple[int, dict]:
        manager = self._manager()
        accounts = manager.accounts()
        out = []
        for tenant in manager.registry:
            account = accounts[tenant.tenant_id]
            out.append({
                "tenant": tenant.tenant_id,
                "sla_class": tenant.sla_class.name,
                "shard": manager.registry.shard_index(
                    tenant.tenant_id, manager.n_shards
                ),
                "quota_jobs": account.quota_jobs,
                "quota_remaining": account.quota_remaining,
                "admitted_jobs": account.admitted_jobs,
            })
        return 200, {"tenants": out}

    def _get_stats(self) -> tuple[int, dict]:
        manager = self._manager()
        snapshots = manager.stats_snapshots()
        shards = [
            {
                "index": snap.index,
                "tenants": list(snap.tenant_ids),
                "stats": snap.counters,
                **({"lost": snap.lost} if snap.lost else {}),
            }
            for snap in snapshots
        ]
        fleet: dict[str, Any] = {}
        for snap in snapshots:
            for key, value in snap.counters.items():
                if isinstance(value, dict):
                    bucket = fleet.setdefault(key, {})
                    for reason, count in sorted(value.items()):
                        bucket[reason] = bucket.get(reason, 0) + count
                else:
                    fleet[key] = fleet.get(key, 0) + value
        return 200, {"fleet": fleet, "shards": shards}

    def _post_jobs(self) -> tuple[int, dict]:
        body = self._read_json()
        validate(body, SUBMIT_SCHEMA)
        manager = self._manager()
        tenant_id = body["tenant"]
        shard_index = manager.shard_index_for(tenant_id)  # raises UnknownTenantError
        # One shard command; an exhausted tenant raises QuotaExceededError.
        arrival_time, outcomes = manager.submit_count(
            tenant_id, body["n_jobs"], body.get("arrival_time_s")
        )
        return 200, {
            "tenant": tenant_id,
            "shard": shard_index,
            "arrival_time_s": arrival_time,
            "outcomes": [
                {
                    "job_id": o.job.job_id,
                    "decision": o.result.decision,
                    "reason": o.result.reason,
                    "promise_s": o.quote.promise_s,
                    "est_completion_s": o.quote.est_completion,
                    "slack_s": o.quote.slack_s,
                }
                for o in outcomes
            ],
        }

    def _post_quotes(self) -> tuple[int, dict]:
        body = self._read_json()
        validate(body, QUOTE_SCHEMA)
        manager = self._manager()
        tenant_id = body["tenant"]
        shard_index = manager.shard_index_for(tenant_id)  # raises UnknownTenantError
        quote = manager.quote(tenant_id)
        return 200, {
            "tenant": tenant_id,
            "shard": shard_index,
            "promise_s": quote.promise_s,
            "est_proc_s": quote.est_proc_s,
            "est_completion_s": quote.est_completion,
            "slack_s": quote.slack_s,
        }


class FleetAPIServer(HTTPServer):
    """An HTTP server bound to one fleet manager.

    Bind to port 0 to let the OS pick (tests do); ``server_port`` then
    carries the real port. ``handle_request`` serves exactly one request
    (deterministic single-step driving); ``serve_forever`` serves until
    shutdown.

    The socket binds in ``__init__`` — *before* any fleet exists when
    ``manager=None`` — so callers can print the real address, then build
    shards/workers behind the already-listening socket and
    :meth:`attach` the manager. Requests racing the boot get a clean
    503 ``starting`` instead of a connection refusal.
    """

    def __init__(
        self,
        manager: Optional[FleetManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.manager = manager
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    def attach(self, manager: FleetManager) -> None:
        """Hand the bound socket its fleet (see class docstring)."""
        self.manager = manager

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that hangs up before its reply costs its connection,
        # not a traceback on stderr.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


@contextmanager
def serve_in_thread(manager: FleetManager) -> Iterator[FleetAPIServer]:
    """Serve ``manager`` on a free local port from a daemon thread until
    the block exits; finishing the fleet is left to the caller."""
    server = FleetAPIServer(manager)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()  # returns once serve_forever has
        server.server_close()


def serve_fleet(
    config: Optional[FleetConfig] = None,
    registry: Optional[TenantRegistry] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = True,
) -> None:
    """Stand up a fleet and serve it until interrupted (CLI entry).

    The socket is bound — and the real address printed — *before* the
    fleet (and, under the multiprocess executor, its worker processes)
    is built, so scripts and tests can never race the server start: once
    the address line appears, connecting succeeds. SIGTERM (and Ctrl-C)
    triggers a graceful drain: every shard is finished, the fleet digest
    printed, and workers shut down.
    """
    config = config if config is not None else FleetConfig()
    registry = registry if registry is not None else default_registry()
    server = FleetAPIServer(None, host=host, port=port, verbose=verbose)
    print(f"fleet API listening on {server.url}", flush=True)
    manager = FleetManager(config, registry)
    server.attach(manager)
    print(
        f"fleet ready: {manager.n_shards} shards via "
        f"{manager.executor_name} executor, {len(manager.registry)} tenants",
        flush=True,
    )

    def _on_term(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_term)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining fleet", flush=True)
        report = manager.finish()
        print(f"fleet sha256: {report.sha256}")
        for index, cause in sorted(report.lost_shards.items()):
            print(f"LOST shard {index}: {cause}")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
