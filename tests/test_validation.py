"""Trace-audit tests, including randomized end-to-end property checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Placement
from repro.experiments.runner import make_scheduler
from repro.sim.environment import CloudBurstEnvironment, SystemConfig
from repro.sim.faults import OutageInjector, OutageWindow
from repro.sim.validation import TraceInvariantError, validate_trace
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

from tests.test_metrics import make_trace, record


class TestAuditChecks:
    def clean_trace(self):
        r1 = record(1, 50.0, proc=50.0)
        r1.machine = "ic-0"
        r2 = record(2, 100.0, proc=50.0)
        r2.machine = "ic-0"
        trace = make_trace([r1, r2], ic_busy=100.0, ic_m=1, ec_m=1)
        return trace

    def test_clean_trace_passes(self):
        assert validate_trace(self.clean_trace()) == []

    def test_detects_machine_overlap(self):
        r1 = record(1, 60.0, proc=60.0)     # exec [0, 60] on ic-0
        r2 = record(2, 90.0, proc=60.0)     # exec [30, 90] on ic-0 -> overlap
        r1.machine = r2.machine = "ic-0"
        trace = make_trace([r1, r2], ic_busy=120.0, ic_m=1)
        problems = validate_trace(trace, raise_on_failure=False)
        assert any("overlaps" in p for p in problems)
        with pytest.raises(TraceInvariantError):
            validate_trace(trace)

    def test_detects_missing_ec_stage(self):
        r = record(1, 100.0, placement=Placement.EC)
        r.machine = "ec-0"
        trace = make_trace([r], ec_busy=10.0)
        problems = validate_trace(trace, raise_on_failure=False)
        assert any("missing stages" in p for p in problems)

    def test_detects_ic_job_with_transfer(self):
        r = record(1, 100.0)
        r.upload_start = 1.0
        r.upload_end = 2.0
        r.machine = "ic-0"
        trace = make_trace([r], ic_busy=10.0)
        problems = validate_trace(trace, raise_on_failure=False)
        assert any("transfer stage" in p for p in problems)

    def test_detects_overfull_busy_time(self):
        r = record(1, 100.0, proc=10.0)
        r.machine = "ic-0"
        trace = make_trace([r], ic_busy=1e6, ic_m=1)
        problems = validate_trace(trace, raise_on_failure=False)
        assert any("exceeds pool capacity" in p for p in problems)

    def test_detects_incomplete_job(self):
        r = record(1, 100.0)
        r.machine = "ic-0"
        r.completion_time = None
        trace = make_trace([record(2, 50.0), r], ic_busy=10.0)
        problems = validate_trace(trace, raise_on_failure=False)
        assert any("never completed" in p for p in problems)


class TestEndToEndAudit:
    """Randomised full runs must always satisfy every invariant."""

    @given(
        scheduler=st.sampled_from(["ICOnly", "Greedy", "Op", "OpSIBS"]),
        bucket=st.sampled_from(list(Bucket)),
        seed=st.integers(min_value=0, max_value=10_000),
        variation=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_runs_are_clean(self, scheduler, bucket, seed, variation):
        gen = WorkloadGenerator(bucket=bucket, seed=seed)
        batches = gen.generate(
            WorkloadConfig(bucket=bucket, n_batches=2, mean_jobs_per_batch=5,
                           seed=seed)
        )
        config = SystemConfig(
            ic_machines=3, ec_machines=2, seed=seed + 1,
            bandwidth_variation=variation,
        )
        env = CloudBurstEnvironment(config)
        env.pretrain_qrsm(*gen.sample_training_set(120))
        trace = env.run(batches, make_scheduler(scheduler, env))
        assert validate_trace(trace) == []

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        outage_start=st.floats(min_value=30.0, max_value=400.0),
        outage_len=st.floats(min_value=30.0, max_value=300.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_runs_survive_random_outages(self, seed, outage_start, outage_len):
        """Failure injection: hard outages never wedge or corrupt a run."""
        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=seed)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=2,
                           mean_jobs_per_batch=5, seed=seed)
        )
        env = CloudBurstEnvironment(
            SystemConfig(ic_machines=3, ec_machines=2, seed=seed + 7)
        )
        env.pretrain_qrsm(*gen.sample_training_set(120))
        OutageInjector(
            env.sim, [env.up_capacity, env.down_capacity],
            [OutageWindow(start_s=outage_start, duration_s=outage_len)],
        )
        trace = env.run(batches, make_scheduler("Op", env))
        assert validate_trace(trace) == []

    def test_rescheduling_runs_audit_clean(self):
        gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=4)
        batches = gen.generate(
            WorkloadConfig(n_batches=2, mean_jobs_per_batch=6, seed=4)
        )
        env = CloudBurstEnvironment(SystemConfig(
            ic_machines=3, ec_machines=1, seed=8,
            enable_ic_pull=True, enable_ec_push=True,
            up_base_mbps=1.0, down_base_mbps=1.5,
        ))
        env.pretrain_qrsm(*gen.sample_training_set(120))
        trace = env.run(batches, make_scheduler("Greedy", env))
        assert validate_trace(trace) == []


class TestKitchenSink:
    def test_all_features_together(self):
        """Everything at once: SIBS scheduler, heterogeneous IC, autoscaled
        EC, rescheduling strategies, Poisson arrivals, and a mid-run
        outage — the run must complete and audit clean."""
        from repro.core.bandwidth_splitting import SizeIntervalSplittingScheduler
        from repro.policy import attach_policy
        from tests.test_autoscale import queue_driven

        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=13)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=3,
                           mean_jobs_per_batch=8, seed=13,
                           arrival_process="poisson")
        )
        env = CloudBurstEnvironment(SystemConfig(
            ic_machines=4, ec_machines=2, seed=14,
            ic_machine_speeds=(0.8, 1.0, 1.2, 1.0),
            enable_ic_pull=True, enable_ec_push=True,
        ))
        env.pretrain_qrsm(*gen.sample_training_set(150))
        attach_policy(env, queue_driven(max_capacity=4, interval_s=45.0))
        OutageInjector(
            env.sim, [env.up_capacity, env.down_capacity],
            [OutageWindow(start_s=120.0, duration_s=90.0)],
        )
        trace = env.run(batches, SizeIntervalSplittingScheduler(env.estimator))
        assert all(r.completed for r in trace.records)
        assert validate_trace(trace) == []
