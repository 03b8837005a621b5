"""Integration tests: the policy plane wired into sim, fleet, obs and CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_one
from repro.policy import (
    ConvergerConfig,
    PolicyConfig,
    ScalingPolicy,
    attach_policy,
)
from repro.sim.environment import SystemConfig

FAST = ExperimentSpec(
    n_batches=2, mean_jobs_per_batch=8,
    system=SystemConfig(ic_machines=4, ec_machines=3, seed=81),
)

HOLD_FOUR = PolicyConfig(
    policies=(
        ScalingPolicy(name="hold", action="target", amount=4, max_capacity=16),
    ),
    converger=ConvergerConfig(interval_s=120.0),
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "policies"


class TestAttach:
    def test_metadata_block_lands_outside_the_digest(self):
        from repro.analysis.determinism import hash_trace

        captured = {}

        def hook(env):
            captured["policy"] = attach_policy(env, HOLD_FOUR)

        trace = run_one("Op", FAST, env_hook=hook)
        block = trace.metadata["policy"]
        assert block["enabled"] is True
        assert block["audit_sha256"] == captured[
            "policy"
        ].converger.audit_sha256()
        assert block["summary"]["ticks"] == len(block["decisions"])
        assert block["summary"]["desired"] == 4
        # The block is metadata: stripping it must not change the hash.
        h = hash_trace(trace)
        del trace.metadata["policy"]
        assert hash_trace(trace) == h

    def test_disabled_config_never_starts_the_loop(self):
        config = PolicyConfig(
            policies=HOLD_FOUR.policies,
            converger=HOLD_FOUR.converger,
            enabled=False,
        )
        captured = {}

        def hook(env):
            captured["policy"] = attach_policy(env, config)

        trace = run_one("Op", FAST, env_hook=hook)
        assert captured["policy"].converger.ticks == 0
        assert trace.metadata["policy"]["enabled"] is False


class TestFleet:
    def test_shard_policy_snapshots_merge_in_shard_order(self):
        from repro.fleet import (
            FleetConfig,
            default_registry,
            run_fleet_load,
        )
        from repro.service import LoadGenConfig

        scaling = PolicyConfig(
            policies=(
                ScalingPolicy(
                    name="hold", action="target", amount=3, max_capacity=8
                ),
            ),
            converger=ConvergerConfig(interval_s=60.0),
        )

        def one_run():
            return run_fleet_load(
                FleetConfig(n_shards=2, seed=2024, scaling=scaling),
                LoadGenConfig(
                    n_jobs=120, rate_per_s=50.0, process="bursty", seed=2024
                ),
                registry=default_registry(6),
            ).report

        report_a, report_b = one_run(), one_run()
        assert report_a.policy is not None
        assert [snap["shard"] for snap in report_a.policy] == [0, 1]
        for snap in report_a.policy:
            assert len(snap["audit_sha256"]) == 64
            assert snap["enabled"] is True
        assert [s["audit_sha256"] for s in report_a.policy] == [
            s["audit_sha256"] for s in report_b.policy
        ]
        assert report_a.as_dict()["policy"] == report_a.policy

    def test_no_scaling_config_keeps_report_policy_none(self):
        from repro.fleet import (
            FleetConfig,
            default_registry,
            run_fleet_load,
        )
        from repro.service import LoadGenConfig

        report = run_fleet_load(
            FleetConfig(n_shards=2, seed=2024),
            LoadGenConfig(
                n_jobs=60, rate_per_s=50.0, process="bursty", seed=2024
            ),
            registry=default_registry(6),
        ).report
        assert report.policy is None
        assert report.as_dict()["policy"] is None


class TestObs:
    def test_converge_hook_feeds_gauges_counters_and_lag(self):
        from repro.obs import attach_obs

        captured = {}

        def hook(env):
            captured["obs"] = attach_obs(env)
            captured["policy"] = attach_policy(env, HOLD_FOUR)

        run_one("Op", FAST, env_hook=hook)
        runtime = captured["obs"]
        names = {f.name for f in runtime.registry.families()}
        assert {
            "repro_policy_desired_capacity",
            "repro_policy_observed_capacity",
            "repro_policy_steps_total",
            "repro_policy_convergence_lag_seconds",
        } <= names
        snapshot = runtime.registry.snapshot()
        text = json.dumps(snapshot)
        assert "repro_policy_desired_capacity" in text
        # The desired gauge tracks the winning proposal.
        desired = next(
            f for f in runtime.registry.families()
            if f.name == "repro_policy_desired_capacity"
        )
        assert any(
            series.value == 4.0 for _, series in desired.series_items()
        )

    def test_converge_points_in_span_stream(self):
        from repro.obs import attach_obs

        captured = {}

        def hook(env):
            captured["obs"] = attach_obs(env)
            attach_policy(env, HOLD_FOUR)

        run_one("Op", FAST, env_hook=hook)
        spans = captured["obs"].spans.as_dicts()
        assert any(s["name"] == "converge" for s in spans)


class TestCli:
    def test_validate_accepts_the_example(self, capsys):
        from repro.cli import main

        assert main(["policy", "validate", str(EXAMPLES / "burst-idle.json")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_files_with_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"policies": [{"name": "p"}]}))
        assert main(["policy", "validate", str(bad)]) == 2
        assert "missing required key" in capsys.readouterr().err

    def test_show_renders_winner_order_and_json(self, capsys):
        from repro.cli import main

        assert main(["policy", "show", str(EXAMPLES / "burst-idle.json")]) == 0
        out = capsys.readouterr().out
        assert "burst-on-queue" in out and "severity" in out
        assert main(
            ["policy", "show", "--json", str(EXAMPLES / "burst-idle.json")]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {p["name"] for p in doc["policies"]} == {
            "hold-floor", "burst-on-queue", "shrink-when-idle",
        }

    def test_simulate_writes_the_audit_log(self, tmp_path, capsys):
        from repro.cli import main

        policy_file = tmp_path / "hold.json"
        policy_file.write_text(
            json.dumps(
                {
                    "policies": [
                        {
                            "name": "hold",
                            "action": "target",
                            "amount": 4,
                            "max_capacity": 16,
                        }
                    ],
                    "converger": {"interval_s": 120.0},
                }
            )
        )
        out = tmp_path / "audit.json"
        code = main(
            [
                "policy", "simulate",
                "--policy", str(policy_file),
                "--scheduler", "Op",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "converger:" in capsys.readouterr().out
        log = json.loads(out.read_text())
        assert log["scheduler"] == "Op"
        assert len(log["audit_sha256"]) == 64
        assert log["decisions"]
        assert log["summary"]["audit_sha256"] == log["audit_sha256"]

    def test_simulate_rejects_unknown_scheduler(self, capsys):
        from repro.cli import main

        code = main(
            [
                "policy", "simulate",
                "--policy", str(EXAMPLES / "burst-idle.json"),
                "--scheduler", "Nope",
            ]
        )
        assert code == 2
        assert "unknown scheduler" in capsys.readouterr().err
