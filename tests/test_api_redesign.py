"""Tests for the unified CLI / Session API redesign.

Pins the contracts the redesign sold, now that the one-release
deprecation window has closed:

* the legacy ``repro-experiment`` entry point and its warning aliases
  (``ProportionalTicket.base``, ``LoadGenConfig.mean_burst``) are *gone*
  — old spellings fail loudly instead of warning;
* the unified :class:`~repro.sim.environment.Session` drives a workload to
  the *identical* trace the classic offline ``run`` produces;
* keyword-only configs reject the positional calls the old API allowed.

The bench harness schema test lives here too: ``BENCH_core.json`` is part
of the new public surface (CI uploads it), so its shape is pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.experiments.cli as experiments_cli
from repro.analysis.determinism import hash_trace
from repro.experiments.runner import make_scheduler
from repro.metrics.tickets import ProportionalTicket
from repro.perf.harness import SCHEMA_VERSION, BenchPreset, run_bench
from repro.service import LoadGenConfig
from repro.sim.environment import CloudBurstEnvironment, ECSiteSpec, SystemConfig
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadGenerator


def _pretrained_env(config: SystemConfig) -> CloudBurstEnvironment:
    env = CloudBurstEnvironment(config)
    gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=11)
    env.pretrain_qrsm(*gen.sample_training_set(150))
    return env


# ----------------------------------------------------------------------
# The unified CLI owns the experiment surface
# ----------------------------------------------------------------------
class TestUnifiedCli:
    def test_legacy_entry_point_is_gone(self):
        """The deprecation window closed: no ``main`` shim remains."""
        assert not hasattr(experiments_cli, "main")

    def test_render_sugar_still_expands(self):
        assert experiments_cli.expand_render_sugar(["fig6"]) == ["render", "fig6"]
        assert experiments_cli.expand_render_sugar(["all"]) == ["render", "all"]
        # Non-target leading words pass through untouched.
        assert experiments_cli.expand_render_sugar(["check"]) == ["check"]

    def test_unified_cli_mounts_experiment_commands(self):
        from repro.cli import build_parser

        text = build_parser().format_help()
        for command in experiments_cli.EXPERIMENT_COMMANDS:
            assert command in text
        assert "bench" in text
        assert "econ" in text


# ----------------------------------------------------------------------
# Session API
# ----------------------------------------------------------------------
class TestSessionEquivalence:
    def test_incremental_session_matches_offline_run(self, fast_config, small_workload):
        """Pushing batches through a Session reproduces env.run() exactly."""
        offline = _pretrained_env(fast_config)
        trace_a = offline.run(small_workload, make_scheduler("Op", offline))

        online = _pretrained_env(fast_config)
        with online.session(make_scheduler("Op", online)) as s:
            for batch in small_workload:
                s.submit(batch.jobs, at=batch.arrival_time, batch_id=batch.batch_id)
        trace_b = s.trace

        assert hash_trace(trace_a) == hash_trace(trace_b)

    def test_context_exit_finalises_once(self, fast_config, small_workload):
        env = _pretrained_env(fast_config)
        with env.session(make_scheduler("Greedy", env)) as s:
            batch = small_workload[0]
            s.submit(batch.jobs, at=batch.arrival_time)
            assert not s.finished
        assert s.finished
        assert s.trace.records  # drained to completion on clean exit
        with pytest.raises(RuntimeError, match="already finished"):
            s.submit(small_workload[1].jobs)


# ----------------------------------------------------------------------
# Keyword-only configs (UNI001 API pass)
# ----------------------------------------------------------------------
class TestKeywordOnlyConfigs:
    def test_system_config_rejects_positional_args(self):
        with pytest.raises(TypeError):
            SystemConfig(8)  # type: ignore[misc]

    def test_ec_site_spec_rejects_positional_args(self):
        with pytest.raises(TypeError):
            ECSiteSpec("emr-west")  # type: ignore[misc]


# ----------------------------------------------------------------------
# Deprecation aliases are removed (window closed)
# ----------------------------------------------------------------------
class TestAliasesRemoved:
    def test_proportional_ticket_base_kwarg_rejected(self):
        with pytest.raises(TypeError):
            ProportionalTicket(base=45.0, factor=3.0)  # type: ignore[call-arg]

    def test_proportional_ticket_has_no_base_attribute(self):
        ticket = ProportionalTicket(base_s=45.0, factor=3.0)
        assert ticket.base_s == 45.0
        assert not hasattr(ticket, "base")

    def test_loadgen_mean_burst_kwarg_rejected(self):
        with pytest.raises(TypeError):
            LoadGenConfig(n_jobs=10, mean_burst=4.0)  # type: ignore[call-arg]

    def test_loadgen_has_no_mean_burst_attribute(self):
        config = LoadGenConfig(n_jobs=10, mean_burst_jobs=4.0)
        assert config.mean_burst_jobs == 4.0
        assert not hasattr(config, "mean_burst")

    def test_new_spellings_stay_silent(self, recwarn):
        ProportionalTicket(base_s=45.0, factor=3.0)
        LoadGenConfig(n_jobs=10, mean_burst_jobs=4.0)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_validation_still_enforced(self):
        with pytest.raises(ValueError):
            ProportionalTicket(base_s=-1.0)
        with pytest.raises(ValueError):
            LoadGenConfig(n_jobs=10, mean_burst_jobs=0.5)


# ----------------------------------------------------------------------
# Bench harness report schema
# ----------------------------------------------------------------------
class TestBenchReportSchema:
    def test_report_written_with_pinned_schema(self, tmp_path):
        out = tmp_path / "bench.json"
        preset = BenchPreset(
            engine_events=1500,
            offline_n_batches=2,
            offline_reps=1,
            loadgen_jobs=15,
            loadgen_bursty_jobs=12,
            fleet_jobs=60,
            fleet_shards=2,
            fleet_reps=2,
            fleet_procs_jobs=60,
            obs_jobs=40,
            obs_reps=2,
            policy_jobs=40,
            policy_reps=2,
        )
        report = run_bench(smoke=True, out_path=out, preset=preset)
        assert report.path == out
        data = json.loads(out.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["smoke"] is True
        assert data["preset"]["engine_events"] == 1500
        assert data["preset"]["loadgen_bursty_jobs"] == 12

        scenarios = data["scenarios"]
        assert scenarios["engine"]["n_events"] == 1500
        assert scenarios["engine"]["events_per_s"] > 0
        offline = scenarios["offline"]["schedulers"]
        assert set(offline) == {"ICOnly", "Greedy", "Op", "OpSIBS"}
        for row in offline.values():
            assert row["wall_s_p50"] > 0
            assert row["records"] > 0
        loadgen = scenarios["loadgen"]
        assert loadgen["n_jobs"] == 15
        assert loadgen["process"] == "poisson"
        assert loadgen["jobs_per_s"] > 0
        assert loadgen["quote_p95_ms"] >= loadgen["quote_p50_ms"] >= 0
        bursty = scenarios["loadgen_bursty"]
        assert bursty["n_jobs"] == 12
        assert bursty["process"] == "bursty"
        assert bursty["jobs_per_s"] > 0
        ov = scenarios["obs_overhead"]
        assert ov["n_jobs"] == 40
        assert ov["reps"] == 2
        assert ov["n_metric_families"] >= 10
        assert ov["spans_kept"] > 0
        assert ov["plain_cpu_s"] > 0 and ov["obs_cpu_s"] > 0
        pc = scenarios["policy_convergence"]
        assert pc["n_jobs"] == 40
        assert pc["reps"] == 2
        assert pc["ticks"] > 0
        assert pc["steps_applied"] == 0
        assert pc["plain_cpu_s"] > 0 and pc["policy_cpu_s"] > 0
        assert len(pc["audit_sha256"]) == 64
        fleet = scenarios["fleet_loadgen"]
        assert fleet["n_jobs"] == 60
        assert fleet["n_shards"] == 2
        assert fleet["reps"] == 2
        assert fleet["aggregate_jobs_per_s"] >= fleet["serial_jobs_per_s"] > 0
        assert len(fleet["fleet_sha256"]) == 64
        assert fleet["quota_rejected"] >= 0
        procs = scenarios["fleet_loadgen_procs"]
        assert procs["executor"] == "multiprocess"
        assert procs["n_jobs"] == 60
        assert procs["aggregate_jobs_per_s"] > 0
        assert procs["inprocess_serial_jobs_per_s"] > 0
        assert procs["speedup_vs_inprocess"] > 0
        # The scenario itself enforces executor parity; the digest it
        # reports is the same workload the in-process scenario hashed.
        assert procs["fleet_sha256"] == fleet["fleet_sha256"]

    def test_fleet_scenario_skipped_when_zeroed(self, tmp_path):
        preset = BenchPreset(
            engine_events=1000,
            offline_n_batches=2,
            offline_reps=1,
            loadgen_jobs=10,
        )
        report = run_bench(smoke=True, out_path=tmp_path / "b.json", preset=preset)
        assert "fleet_loadgen" not in report.scenarios
        assert "fleet_loadgen_procs" not in report.scenarios
        assert "policy_convergence" not in report.scenarios

    @pytest.mark.parametrize(
        "fault, message", [("drift", "fleet bench diverged"), ("crash", "crash")]
    )
    def test_fleet_guard_raises_and_restores_gc(
        self, tmp_path, monkeypatch, fault, message
    ):
        """The second fleet run either lands on another digest (the
        harness's parity guard must refuse it) or raises mid-rep; either
        way the GC the timed reps paused is back on afterwards."""
        import gc

        import repro.fleet

        real = repro.fleet.run_fleet_load
        calls = []

        def faulty(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2 and fault == "crash":
                raise RuntimeError("crash")
            result = real(*args, **kwargs)
            if len(calls) == 2:
                result.report.sha256 = "0" * 64
            return result

        monkeypatch.setattr(repro.fleet, "run_fleet_load", faulty)
        preset = BenchPreset(
            engine_events=1000,
            offline_n_batches=2,
            offline_reps=1,
            loadgen_jobs=10,
            fleet_jobs=40,
            fleet_shards=2,
            fleet_reps=2,
        )
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match=message):
            run_bench(smoke=True, out_path=tmp_path / "b.json", preset=preset)
        assert len(calls) == 2
        assert gc.isenabled()

    def test_committed_bench_artifact_meets_fleet_target(self):
        """BENCH_core.json is the acceptance artifact: schema v6 with the
        fleet scenario sustaining >=100k jobs/s aggregate over >=4 shards."""
        bench_path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
        data = json.loads(bench_path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        fleet = data["scenarios"]["fleet_loadgen"]
        assert fleet["n_shards"] >= 4
        assert fleet["aggregate_jobs_per_s"] >= 100_000
        assert len(fleet["fleet_sha256"]) == 64

    def test_committed_bench_artifact_meets_procs_target(self):
        """ISSUE 8 acceptance: the multiprocess executor sustains >=2x
        the in-process serial rate on >=4 shards (CPU-clock aggregate —
        the one-core-per-shard deployment figure), and its digest is the
        same workload digest the in-process fleet scenario reports."""
        bench_path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
        data = json.loads(bench_path.read_text())
        procs = data["scenarios"]["fleet_loadgen_procs"]
        assert procs["executor"] == "multiprocess"
        assert procs["n_shards"] >= 4
        assert procs["speedup_vs_inprocess"] >= 2.0
        assert len(procs["fleet_sha256"]) == 64

    def test_committed_bench_artifact_meets_obs_budget(self):
        """PR 9 acceptance: attaching the full telemetry catalogue costs
        at most 5% of the broker hot path (CPU clock, min over reps)."""
        bench_path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
        data = json.loads(bench_path.read_text())
        ov = data["scenarios"]["obs_overhead"]
        assert ov["n_metric_families"] >= 10
        assert ov["spans_kept"] > 0
        assert ov["plain_cpu_s"] > 0 and ov["obs_cpu_s"] > 0
        assert ov["overhead_pct"] <= 5.0

    def test_committed_bench_artifact_meets_policy_budget(self):
        """ISSUE 10 acceptance: running the convergence autoscaler's full
        observe/resolve/audit loop (steady-state policy, zero steps)
        costs at most 5% of the broker hot path, and the control plane
        is deterministic across bench reps."""
        bench_path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
        data = json.loads(bench_path.read_text())
        pc = data["scenarios"]["policy_convergence"]
        assert pc["ticks"] > 0
        assert pc["steps_applied"] == 0
        assert pc["plain_cpu_s"] > 0 and pc["policy_cpu_s"] > 0
        assert pc["overhead_pct"] <= 5.0
        assert len(pc["audit_sha256"]) == 64

    def test_bursty_scenario_skipped_when_zeroed(self, tmp_path):
        preset = BenchPreset(
            engine_events=1000,
            offline_n_batches=2,
            offline_reps=1,
            loadgen_jobs=10,
            loadgen_bursty_jobs=0,
        )
        report = run_bench(smoke=True, out_path=tmp_path / "b.json", preset=preset)
        assert "loadgen_bursty" not in report.scenarios

    def test_render_mentions_every_scenario(self, tmp_path):
        preset = BenchPreset(
            engine_events=1000,
            offline_n_batches=2,
            offline_reps=1,
            loadgen_jobs=10,
            loadgen_bursty_jobs=10,
        )
        report = run_bench(smoke=True, out_path=tmp_path / "b.json", preset=preset)
        text = report.render()
        assert "engine" in text and "offline" in text
        assert "loadgen" in text and "loadgen_bursty" in text
