"""Elastic EC autoscaling (queue-driven scaling policy) and
elastic-cluster mechanics tests."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import build_workload, run_one
from repro.metrics.sla import summarize
from repro.policy import (
    Converger,
    ConvergerConfig,
    PolicyConfig,
    PolicySet,
    ScalingPolicy,
    attach_policy,
)
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.environment import SystemConfig
from repro.workload.distributions import Bucket


def queue_driven(
    *,
    min_capacity: int = 1,
    max_capacity: int = 8,
    interval_s: float = 60.0,
    queue_at_least: int = 1,
    sustain_periods: int = 2,
) -> PolicyConfig:
    """The queue-up / sustained-idle-down rule as data: one machine up
    while ``queue_at_least`` jobs queue, one down after
    ``sustain_periods`` idle ticks, on the gross (billed) basis."""
    bounds = {"min_capacity": min_capacity, "max_capacity": max_capacity}
    return PolicyConfig(
        policies=(
            ScalingPolicy(
                name="queue-up", trigger="queue", action="step_up",
                queue_at_least=queue_at_least, severity=10, **bounds,
            ),
            ScalingPolicy(
                name="idle-down", trigger="idle", action="step_down",
                sustain_periods=sustain_periods, **bounds,
            ),
        ),
        converger=ConvergerConfig(
            interval_s=interval_s, basis="gross", delete_offline=False
        ),
    )


def start_converger(sim, cluster, config: PolicyConfig) -> Converger:
    converger = Converger(sim, cluster, PolicySet(config.policies), config.converger)
    converger.start()
    return converger


class TestElasticCluster:
    def test_add_machine_dispatches_queued_work(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=1)
        done = []
        c.submit("a", 10.0, lambda i, m: done.append((i, sim.now)))
        c.submit("b", 10.0, lambda i, m: done.append((i, sim.now)))
        c.add_machine()
        sim.run()
        # With the second machine 'b' starts immediately: both done at t=10.
        assert [t for _, t in done] == pytest.approx([10.0, 10.0])

    def test_added_machine_gets_fresh_name(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=2)
        m = c.add_machine()
        assert m.name == "c-2"
        assert c.n_machines == 3

    def test_retire_idle_machine_is_immediate(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=3)
        assert c.retire_machine() is True
        assert c.n_machines == 2

    def test_retire_busy_machine_drains(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=2)
        c.submit("a", 10.0, lambda i, m: None)
        c.submit("b", 10.0, lambda i, m: None)
        assert c.retire_machine() is True
        assert c.n_machines == 2  # still finishing its job
        sim.run()
        assert c.n_machines == 1

    def test_draining_machine_takes_no_new_work(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=2)
        c.submit("a", 10.0, lambda i, m: None)
        c.submit("b", 10.0, lambda i, m: None)
        c.retire_machine()
        starts = []
        c.submit("late", 1.0, lambda i, m: None,
                 on_start=lambda i, m: starts.append(m.name))
        sim.run()
        # 'late' must have run on the surviving machine only.
        assert len(starts) == 1
        assert c.n_machines == 1

    def test_never_below_one_machine(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=1)
        assert c.retire_machine() is False

    def test_busy_time_survives_retirement(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=2)
        c.submit("a", 10.0, lambda i, m: None)
        c.retire_machine()  # retires the idle one
        sim.run()
        assert c.total_busy_time == pytest.approx(10.0)

    def test_rented_machine_seconds_integrates_pool(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=2)
        sim.schedule(10.0, c.add_machine)
        sim.schedule(20.0, lambda: None)
        sim.run()
        # 2 machines for 10s, then 3 for 10s = 50 machine-seconds.
        assert c.rented_machine_seconds == pytest.approx(50.0)


class TestAutoScaler:
    def test_validation(self):
        with pytest.raises(ValueError):
            queue_driven(min_capacity=0)
        with pytest.raises(ValueError):
            queue_driven(min_capacity=3, max_capacity=2)
        with pytest.raises(ValueError):
            queue_driven(interval_s=0.0)

    def test_scales_up_under_queue_pressure(self):
        sim = Simulator()
        c = Cluster(sim, "c", 1)
        converger = start_converger(
            sim, c, queue_driven(max_capacity=4, interval_s=10.0)
        )
        for k in range(6):
            c.submit(k, 500.0, lambda i, m: None)
        sim.run(until=100.0)
        assert c.n_machines > 1
        assert converger.step_totals()["launch"] > 0

    def test_scales_down_when_idle(self):
        sim = Simulator()
        c = Cluster(sim, "c", 4)
        converger = start_converger(
            sim, c, queue_driven(interval_s=10.0, sustain_periods=2)
        )
        sim.run(until=200.0)
        assert c.n_machines == 1
        assert converger.step_totals()["drain"] == 3

    def test_knee_caps_pool(self):
        sim = Simulator()
        c = Cluster(sim, "c", 1)
        start_converger(sim, c, queue_driven(max_capacity=2, interval_s=10.0))
        for k in range(20):
            c.submit(k, 1000.0, lambda i, m: None)
        sim.run(until=300.0)
        assert c.n_machines <= 2

    def test_full_run_with_autoscaling_cheaper_at_same_makespan(self):
        """The Section V.B.4 economics: fewer rented machine-seconds."""
        spec = ExperimentSpec(
            bucket=Bucket.LARGE, n_batches=4,
            system=SystemConfig(seed=91, ec_machines=6),
        )
        batches = build_workload(spec)
        static = run_one("Op", spec, batches=batches)

        envs = []

        def hook(env):
            attach_policy(env, queue_driven(max_capacity=6, interval_s=60.0))
            envs.append(env)

        elastic = run_one("Op", spec, batches=batches, env_hook=hook)
        assert all(r.completed for r in elastic.records)
        static_cost = 6.0 * (static.end_time - static.arrival_time)
        elastic_cost = envs[0].ec.rented_machine_seconds
        assert elastic_cost < static_cost * 0.85
        assert elastic.makespan < static.makespan * 1.10
