"""Integration tests for the fleet HTTP/JSON front, over a real socket.

Pins the error contract from the module docstring: every failure wears
the one versioned envelope ``{"error": {"code", "message", "path"}}`` —
malformed bodies get a 400 with a path-qualified schema error and never
touch a shard, unknown tenants get 404, exhausted quotas get the
distinct 429, and no request — including one that trips an internal
fault — kills the server. The HTTP load driver (``run_client_load``)
must replay the in-process driver's per-shard schedule and drain to its
digest, and the load verbs must end bad input in one line.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request
from collections import defaultdict

import pytest

from repro.cli import main as cli_main
from repro.fleet import (
    BRONZE,
    BrokerShard,
    FleetAPIError,
    FleetAPIServer,
    FleetClient,
    FleetConfig,
    FleetManager,
    TenantSpec,
    TenantRegistry,
    default_registry,
    run_fleet_load,
    serve_in_thread,
    shard_streams,
)
from repro.fleet.loadgen import run_client_load
from repro.service import LoadGenConfig, arrival_schedule


@pytest.fixture
def server():
    registry = TenantRegistry(
        [
            TenantSpec(tenant_id="roomy"),
            TenantSpec(tenant_id="capped", quota_jobs=2),
        ]
    )
    manager = FleetManager(
        FleetConfig(n_shards=2, seed=2024, pretrain_jobs=40), registry
    )
    with serve_in_thread(manager) as srv:
        yield srv


def request(srv, path, body=None, raw: bytes = None, timeout: float = 10):
    """One round trip; returns (status, parsed_json_body)."""
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None
    )
    req = urllib.request.Request(
        srv.url + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_health(self, server):
        status, body = request(server, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["n_shards"] == 2
        assert body["n_tenants"] == 2
        assert body["executor"] == "inprocess"
        assert all(w["alive"] for w in body["workers"])

    def test_tenants_directory_reports_quota_state(self, server):
        status, body = request(server, "/v1/tenants")
        assert status == 200
        by_id = {t["tenant"]: t for t in body["tenants"]}
        assert by_id["capped"]["quota_jobs"] == 2
        assert by_id["capped"]["quota_remaining"] == 2
        assert by_id["roomy"]["quota_jobs"] is None
        assert all(0 <= t["shard"] < 2 for t in by_id.values())

    def test_submit_returns_one_outcome_per_job(self, server):
        status, body = request(
            server, "/v1/jobs", {"tenant": "roomy", "n_jobs": 3}
        )
        assert status == 200
        assert body["tenant"] == "roomy"
        assert len(body["outcomes"]) == 3
        for outcome in body["outcomes"]:
            assert outcome["decision"] in ("accept", "accept_degraded", "reject")
            assert outcome["promise_s"] is None or outcome["promise_s"] > 0

    def test_quote_prices_without_admitting(self, server):
        status, body = request(server, "/v1/quotes", {"tenant": "roomy"})
        assert status == 200
        assert body["est_completion_s"] > 0
        stats_status, stats = request(server, "/v1/stats")
        assert stats_status == 200
        assert stats["fleet"]["submitted"] == 0

    def test_stats_fleet_counters_sum_the_shards(self, server):
        request(server, "/v1/jobs", {"tenant": "roomy", "n_jobs": 2})
        request(server, "/v1/jobs", {"tenant": "capped", "n_jobs": 1})
        status, body = request(server, "/v1/stats")
        assert status == 200
        assert body["fleet"]["submitted"] == sum(
            s["stats"]["submitted"] for s in body["shards"]
        )
        assert body["fleet"]["submitted"] == 3


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------
class TestErrorContract:
    def test_bad_json_is_a_400(self, server):
        status, body = request(server, "/v1/jobs", raw=b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid_json"
        assert body["error"]["path"] == "/v1/jobs"

    def test_empty_body_is_a_400(self, server):
        status, body = request(server, "/v1/jobs", raw=b"")
        assert status == 400
        assert body["error"]["code"] == "empty_body"

    @pytest.mark.parametrize(
        "payload, path, fragment",
        [
            ({"n_jobs": 1}, "$", "tenant"),                     # missing key
            ({"tenant": "roomy", "n_jobs": "three"}, "n_jobs", "integer"),
            ({"tenant": "roomy", "n_jobs": 0}, "n_jobs", "minimum"),
            ({"tenant": "", "n_jobs": 1}, "tenant", "shorter"),
            ({"tenant": "roomy", "n_jobs": 1, "x": 1}, "$", "x"),  # extra key
            (
                {"tenant": "roomy", "n_jobs": 1, "arrival_time_s": -5},
                "arrival_time_s",
                "minimum",
            ),
        ],
    )
    def test_schema_violations_are_400_with_a_path(
        self, server, payload, path, fragment
    ):
        status, body = request(server, "/v1/jobs", payload)
        assert status == 400
        assert body["error"]["code"] == "schema_violation"
        assert body["error"]["path"] == path
        assert fragment in body["error"]["message"]

    def test_schema_violation_leaves_the_shard_untouched(self, server):
        request(server, "/v1/jobs", {"tenant": "roomy", "n_jobs": -1})
        status, stats = request(server, "/v1/stats")
        assert status == 200
        assert stats["fleet"]["submitted"] == 0

    def test_unknown_tenant_is_a_404(self, server):
        status, body = request(
            server, "/v1/jobs", {"tenant": "nobody", "n_jobs": 1}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_tenant"

    def test_unknown_route_is_a_404(self, server):
        status, body = request(server, "/v1/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert body["error"]["path"] == "/v1/nope"
        status, body = request(server, "/v1/health", {"x": 1})
        assert status == 404  # POST to a GET-only path

    def test_oversized_body_is_a_413(self, server):
        blob = b'{"tenant": "' + b"a" * (70 * 1024) + b'"}'
        status, body = request(server, "/v1/jobs", raw=blob)
        assert status == 413
        assert body["error"]["code"] == "body_too_large"

    def test_quota_exhaustion_is_a_distinct_429(self, server):
        first_status, first = request(
            server, "/v1/jobs", {"tenant": "capped", "n_jobs": 5}
        )
        assert first_status == 200
        reasons = [o["reason"] for o in first["outcomes"]]
        assert reasons.count("quota") >= 3  # overflow past the quota of 2
        # Once exhausted, the whole request is refused up front.
        status, body = request(
            server, "/v1/jobs", {"tenant": "capped", "n_jobs": 1}
        )
        assert status == 429
        assert body["error"]["code"] == "quota_exhausted"
        assert "capped" in body["error"]["message"]

    def test_server_survives_every_error_class(self, server):
        request(server, "/v1/jobs", raw=b"{broken")
        request(server, "/v1/jobs", {"tenant": "nobody", "n_jobs": 1})
        request(server, "/v1/jobs", {"tenant": "roomy", "n_jobs": -3})
        request(server, "/v1/jobs", {"tenant": "capped", "n_jobs": 5})
        request(server, "/v1/jobs", {"tenant": "capped", "n_jobs": 1})  # 429
        status, body = request(server, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"

    def test_torn_body_is_a_400_and_does_not_wedge_the_front(
        self, server, monkeypatch
    ):
        from repro.fleet import api

        monkeypatch.setattr(api._Handler, "timeout", 0.5)
        with socket.create_connection(server.server_address[:2], timeout=10) as torn:
            # Content-Length promises 100 bytes; 9 arrive, the socket stays open.
            torn.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\nContent-Length: 100\r\n"
                b"\r\n" + b'{"tenant"'
            )
            status, _ = request(server, "/v1/health")
            assert status == 200
            with torn.makefile("rb") as reply:
                head, _, payload = reply.read().partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        error = json.loads(payload)["error"]
        assert error["code"] == "invalid_request"
        assert error["message"] == "body shorter than Content-Length"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_a_400_and_does_not_wedge_the_front(
        self, token
    ):
        manager = FleetManager(
            FleetConfig(n_shards=1, seed=2024, pretrain_jobs=40),
            TenantRegistry([TenantSpec(tenant_id="roomy")]),
        )
        srv = FleetAPIServer(manager)

        def serve_one(body=None, raw=None):
            # One request per handle_request on a daemon thread, so a
            # front that never answers fails the test instead of hanging.
            thread = threading.Thread(target=srv.handle_request, daemon=True)
            thread.start()
            reply = request(srv, "/v1/jobs", body, raw, timeout=5)
            thread.join(timeout=5)
            assert not thread.is_alive()
            return reply

        try:
            raw = f'{{"tenant": "roomy", "n_jobs": 1, "arrival_time_s": {token}}}'
            status, body = serve_one(raw=raw.encode())
            assert status == 400
            assert body["error"]["code"] == "schema_violation"
            assert body["error"]["path"] == "arrival_time_s"
            assert serve_one({"tenant": "roomy", "n_jobs": 1})[0] == 200
        finally:
            srv.server_close()

    def test_client_hangup_is_not_a_traceback(self, server, capsys):
        try:
            raise BrokenPipeError("client went away")
        except BrokenPipeError:
            server.handle_error(None, ("127.0.0.1", 0))
        assert capsys.readouterr().err == ""

    def test_internal_fault_returns_500_and_keeps_serving(self, server):
        # Sabotage one handler path: an unregistered exception type must
        # surface as a 500, not kill the server loop.
        original = server.manager.submit_count
        server.manager.submit_count = lambda *a, **kw: (_ for _ in ()).throw(
            OSError("disk on fire")
        )
        try:
            status, body = request(
                server, "/v1/jobs", {"tenant": "roomy", "n_jobs": 1}
            )
        finally:
            server.manager.submit_count = original
        assert status == 500
        assert body["error"]["code"] == "internal"
        assert "disk on fire" in body["error"]["message"]
        status, _ = request(server, "/v1/health")
        assert status == 200


# ----------------------------------------------------------------------
# The HTTP load driver
# ----------------------------------------------------------------------
DRIVER_FLEET = FleetConfig(n_shards=3, seed=2024, pretrain_jobs=40)
DRIVER_LOAD = LoadGenConfig(
    n_jobs=150, process="bursty", mean_burst_jobs=5.0, seed=11
)


def served_load(registry):
    """``DRIVER_LOAD`` over HTTP against a fresh fleet, then drained."""
    manager = FleetManager(DRIVER_FLEET, registry)
    with serve_in_thread(manager) as srv:
        result = run_client_load(srv.url, DRIVER_LOAD)
    return result, manager.finish()


def starved_registry():
    """Four tenants plus one whose two-job quota runs out mid-run."""
    registry = default_registry(4)
    registry.register(
        TenantSpec(tenant_id="starved-005", sla_class=BRONZE, quota_jobs=2)
    )
    return registry


@pytest.fixture
def served_groups(monkeypatch):
    """Per shard, each ``(arrival_time, tenant, n_jobs)`` reaching
    :meth:`BrokerShard.submit_count`, the one entry both drivers use."""
    groups = defaultdict(list)
    submit_count = BrokerShard.submit_count

    def record(shard, tenant_id, n_jobs, arrival_time=None):
        groups[shard.index].append((arrival_time, tenant_id, n_jobs))
        return submit_count(shard, tenant_id, n_jobs, arrival_time)

    monkeypatch.setattr(BrokerShard, "submit_count", record)
    return groups


class TestClientLoad:
    def test_http_replays_the_in_process_schedule(self, served_groups):
        run_fleet_load(DRIVER_FLEET, DRIVER_LOAD, registry=default_registry(12))
        in_process = dict(served_groups)
        served_groups.clear()
        result, _ = served_load(default_registry(12))
        assert sorted(in_process) == [0, 1, 2]
        # Equal lists also pin that every POST carried its arrival time.
        assert served_groups == in_process
        assert result.n_submitted == DRIVER_LOAD.n_jobs

    @pytest.mark.parametrize(
        "make_registry",
        [lambda: default_registry(12), starved_registry],
        ids=["plain", "starved"],
    )
    def test_direct_and_served_drain_to_one_digest(self, make_registry):
        direct = run_fleet_load(DRIVER_FLEET, DRIVER_LOAD, registry=make_registry())
        served, report = served_load(make_registry())
        assert report.sha256 == direct.report.sha256
        assert served.quota_refusals == direct.quota_refusals
        assert served.n_submitted == direct.n_submitted
        if make_registry is starved_registry:
            assert direct.quota_refusals > 0

    def test_served_runs_drain_to_one_digest(self, served_groups):
        _, first = served_load(default_registry(12))
        arrival_times = {
            index: {t for t, _, _ in groups}
            for index, groups in served_groups.items()
        }
        _, second = served_load(default_registry(12))
        assert first.sha256 == second.sha256
        assert len(arrival_times) == 3
        assert all(len(times) > 1 for times in arrival_times.values())

    def test_quota_exhaustion_skips_the_tenants_later_groups(
        self, monkeypatch
    ):
        registry = TenantRegistry(
            [
                TenantSpec(tenant_id="roomy"),
                TenantSpec(tenant_id="capped", quota_jobs=5),
            ]
        )
        refused = []
        submit = FleetClient.submit

        def record(client, tenant_id, n_jobs, arrival_time_s=None):
            try:
                return submit(client, tenant_id, n_jobs, arrival_time_s)
            except FleetAPIError as exc:
                refused.append((tenant_id, exc.status))
                raise

        monkeypatch.setattr(FleetClient, "submit", record)
        result, _ = served_load(registry)
        assert refused == [("capped", 429)]
        assert result.exhausted_tenants == ("capped",)
        by_shard = defaultdict(list)
        for tenant in registry:
            by_shard[registry.shard_index(tenant.tenant_id, 3)].append(
                tenant.tenant_id
            )
        scheduled = sum(
            len(list(arrival_schedule(stream)))
            for stream in shard_streams(DRIVER_LOAD, by_shard).values()
        )
        # The 429 plus every skipped group, none of them sent.
        assert result.quota_refusals > 1
        assert result.n_groups + result.quota_refusals == scheduled


@pytest.fixture
def closed_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["loadgen", "--jobs", "0"], 2),
        (["loadgen", "--rate", "0"], 2),
        (["fleet", "loadgen", "--rate", "0"], 2),
        (["fleet", "loadgen", "--mean-burst", "0.5"], 2),
        (["fleet", "loadgen", "--url", "{closed}", "--jobs", "10"], 1),
        (["fleet", "loadgen", "--url", "{closed}", "--format", "json"], 2),
        (["fleet", "loadgen", "--url", "{closed}", "--strict"], 2),
    ],
)
def test_load_verbs_end_bad_input_in_one_line(argv, code, closed_url, capsys):
    argv = [arg.format(closed=closed_url) for arg in argv]
    assert cli_main(argv) == code
    out, err = capsys.readouterr()
    verb = "repro " + " ".join(argv[: argv.index("loadgen") + 1])
    assert out == ""
    assert err.startswith(f"{verb}: ")
    assert err.count("\n") == 1
