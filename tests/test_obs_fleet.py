"""Fleet-plane observability: the scrape endpoint, report rows, piggyback.

Three integration surfaces over small real fleets:

* ``GET /v1/metrics`` speaks valid Prometheus text and
  ``FleetClient.metrics()`` parses it into typed families;
* ``repro fleet loadgen --format json`` emits exactly the tenant rows the
  markdown table renders, plus the obs snapshot stamped with the fleet
  sha;
* the multiprocess executor ships each worker's registry home
  piggybacked on the stats/drain replies, so the folded fleet registry
  matches the in-process run's observer totals.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.fleet import (
    FleetAPIServer,
    FleetClient,
    FleetConfig,
    FleetManager,
    TenantRegistry,
    TenantSpec,
    run_fleet_load,
)
from repro.obs import validate_exposition
from repro.service import LoadGenConfig


LOAD = LoadGenConfig(n_jobs=120, rate_per_s=50.0, process="bursty", seed=2024)


def small_fleet_config(**overrides: object) -> FleetConfig:
    defaults: dict[str, object] = dict(n_shards=2, seed=2024, pretrain_jobs=40)
    defaults.update(overrides)
    return FleetConfig(**defaults)  # type: ignore[arg-type]


def two_tenants() -> TenantRegistry:
    return TenantRegistry(
        [TenantSpec(tenant_id="acme"), TenantSpec(tenant_id="initech")]
    )


@pytest.fixture
def server():
    manager = FleetManager(small_fleet_config(), two_tenants())
    srv = FleetAPIServer(manager, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


class TestMetricsEndpoint:
    def test_raw_scrape_is_valid_exposition(self, server):
        with urllib.request.urlopen(server.url + "/v1/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode("utf-8")
        validate_exposition(text)
        assert "# TYPE fleet_shards gauge" in text

    def test_client_metrics_returns_typed_families(self, server):
        with FleetClient(server.url) as client:
            client.submit("acme", 8)
            scrape = client.metrics()
        assert scrape.family("fleet_shards").value() == 2.0
        names = {family.name for family in scrape.families}
        assert "repro_admission_total" in names
        admitted = sum(
            sample.value
            for sample in scrape.family("repro_admission_total").samples
        )
        assert admitted >= 8.0

    def test_metrics_absent_families_raise_keyerror(self, server):
        with FleetClient(server.url) as client:
            scrape = client.metrics()
        with pytest.raises(KeyError):
            scrape.family("no_such_family_total")


class TestReportFormats:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fleet_load(
            small_fleet_config(),
            LOAD,
            registry=two_tenants(),
        )

    def test_json_rows_are_the_markdown_rows(self, result):
        report = result.report
        data = report.as_dict()
        assert data["rows"] == report.tenant_rows()
        markdown = report.render_markdown()
        for row in data["rows"]:
            assert f"| {row['tenant_id']} |" in markdown

    def test_json_obs_snapshot_is_stamped_with_fleet_sha(self, result):
        report = result.report
        snapshot = report.as_dict()["obs"]
        assert snapshot is not None
        assert snapshot["fleet_sha256"] == report.sha256
        assert snapshot["registry_sha256"] == report.obs.snapshot_sha256()
        assert "repro_jobs_completed_total" in snapshot["registry"]["families"]

    def test_cli_report_json_round_trips(self, capsys):
        assert cli_main([
            "fleet", "loadgen", "--shards", "2", "--tenants", "2",
            "--jobs", "60", "--format", "json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_shards"] == 2
        assert [row["tenant_id"] for row in data["rows"]] == sorted(
            row["tenant_id"] for row in data["rows"]
        )
        assert data["obs"]["fleet_sha256"] == data["fleet_sha256"]

    def test_telemetry_off_leaves_obs_out_but_sha_fixed(self, result):
        dark = run_fleet_load(
            small_fleet_config(telemetry=False),
            LOAD,
            registry=two_tenants(),
        )
        assert dark.report.obs is None
        assert dark.report.as_dict()["obs"] is None
        assert dark.report.sha256 == result.report.sha256


class TestExecutorPiggyback:
    def test_multiprocess_fold_matches_inprocess_observer_totals(self):
        local = run_fleet_load(
            small_fleet_config(), LOAD, registry=two_tenants()
        )
        remote = run_fleet_load(
            small_fleet_config(executor="multiprocess"),
            LOAD,
            registry=two_tenants(),
        )
        assert remote.report.sha256 == local.report.sha256

        def totals(report, name):
            return sum(
                series.value
                for _, series in report.obs.get(name).series_items()
            )

        for family in (
            "repro_jobs_completed_total",
            "repro_admission_total",
            "repro_plan_decisions_total",
        ):
            assert totals(remote.report, family) == totals(local.report, family)

        worker_cmds = remote.report.obs.get("fleet_worker_commands_total")
        assert worker_cmds is not None
        assert sum(s.value for _, s in worker_cmds.series_items()) > 0
        # The in-process executor has no worker plane to report on.
        assert local.report.obs.get("fleet_worker_commands_total") is None
