"""Heterogeneous machine pools and Poisson batch arrivals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import RandomBurstScheduler
from repro.core.greedy import GreedyScheduler
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.environment import CloudBurstEnvironment, SystemConfig
from repro.sim.validation import validate_trace
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


class TestHeterogeneousCluster:
    def test_per_machine_speeds(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=0, speeds=[1.0, 2.0, 4.0])
        assert c.n_machines == 3
        assert [m.speed for m in c.machines] == [1.0, 2.0, 4.0]
        assert c.mean_speed == pytest.approx(7.0 / 3.0)

    def test_fast_machine_finishes_sooner(self):
        sim = Simulator()
        c = Cluster(sim, "c", n_machines=0, speeds=[1.0, 4.0])
        done = {}
        c.submit("slow-side", 40.0, lambda i, m: done.setdefault(i, sim.now))
        c.submit("fast-side", 40.0, lambda i, m: done.setdefault(i, sim.now))
        sim.run()
        # Dispatch order: first job -> machine 0 (speed 1, 40s), second ->
        # machine 1 (speed 4, 10s).
        assert done["fast-side"] == pytest.approx(10.0)
        assert done["slow-side"] == pytest.approx(40.0)

    def test_invalid_speeds(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Cluster(sim, "c", 1, speeds=[1.0, 0.0])
        with pytest.raises(ValueError):
            Cluster(sim, "c", 1, speeds=[])


class TestHeterogeneousEnvironment:
    def run_env(self, speeds, scheduler=GreedyScheduler, **config):
        cfg = SystemConfig(
            ic_machines=4, ec_machines=2, seed=23,
            ic_machine_speeds=speeds, **config,
        )
        gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=6)
        batches = gen.generate(
            WorkloadConfig(n_batches=2, mean_jobs_per_batch=8, seed=6)
        )
        env = CloudBurstEnvironment(cfg)
        env.pretrain_qrsm(*gen.sample_training_set(150))
        return env.run(batches, scheduler(env.estimator))

    def test_ic_pull_plans_at_pool_speed(self, monkeypatch):
        """IC pull prices a local rerun at the pool's speed, not ``ic_speed``."""
        import repro.sim.environment as environment

        seen: list[float] = []
        real = environment.pick_ic_pull

        def spy(waiting, est_completions, est_procs, now, ic_speed):
            seen.append(ic_speed)
            return real(waiting, est_completions, est_procs, now, ic_speed)

        monkeypatch.setattr(environment, "pick_ic_pull", spy)
        # Burst nearly everything so uploads queue while the IC idles.
        trace = self.run_env(
            (2.0, 2.0),
            scheduler=lambda est: RandomBurstScheduler(est, burst_probability=0.9),
            enable_ic_pull=True,
        )
        assert any(r.rescheduled for r in trace.records)
        assert seen
        assert set(seen) == {2.0}

    def test_mixed_pool_run_is_clean(self):
        trace = self.run_env((0.5, 1.0, 1.0, 2.0, 2.0))
        assert all(r.completed for r in trace.records)
        assert validate_trace(trace) == []
        assert trace.ic_machines == 5  # speeds tuple sets the pool size

    def test_faster_pool_finishes_sooner(self):
        slow = self.run_env((1.0, 1.0, 1.0, 1.0))
        fast = self.run_env((2.0, 2.0, 2.0, 2.0))
        assert fast.makespan < slow.makespan


class TestPoissonArrivals:
    def test_fixed_arrivals_equally_spaced(self):
        batches = WorkloadGenerator(seed=4).generate(
            WorkloadConfig(n_batches=5, seed=4, arrival_process="fixed")
        )
        gaps = np.diff([b.arrival_time for b in batches])
        assert np.allclose(gaps, 180.0)

    def test_poisson_arrivals_are_irregular_with_right_mean(self):
        batches = WorkloadGenerator(seed=4).generate(
            WorkloadConfig(n_batches=300, seed=4, arrival_process="poisson")
        )
        gaps = np.diff([b.arrival_time for b in batches])
        assert gaps.std() > 60.0  # genuinely exponential, not constant
        assert np.mean(gaps) == pytest.approx(180.0, rel=0.15)
        assert np.all(gaps >= 0)

    def test_invalid_process_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_process="weibull")

    def test_poisson_workload_runs_clean(self):
        gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=8)
        batches = gen.generate(
            WorkloadConfig(n_batches=3, mean_jobs_per_batch=6, seed=8,
                           arrival_process="poisson")
        )
        env = CloudBurstEnvironment(SystemConfig(ic_machines=4, ec_machines=2, seed=9))
        env.pretrain_qrsm(*gen.sample_training_set(150))
        trace = env.run(batches, GreedyScheduler(env.estimator))
        assert validate_trace(trace) == []
