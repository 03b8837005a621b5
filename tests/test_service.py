"""Tests for the online broker subsystem (repro.service).

The anchor test is offline/online equivalence: replaying an offline
workload through the broker under the accept-all policy must reproduce the
offline runner's trace *identically* for every paper scheduler. Around it:
quoting, each admission branch, backpressure under overload, streaming
counters and the load driver.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import pytest

from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import (
    PAPER_SCHEDULERS,
    build_workload,
    make_scheduler,
    run_one,
)
from repro.metrics.streaming import ReservoirSampler, StreamingSLAStats
from repro.metrics.tickets import FixedSlaTicket, ProportionalTicket
from repro.service import (
    AdmissionDecision,
    BurstBroker,
    LoadGenConfig,
    SLAPolicy,
    arrival_schedule,
    generate_arrivals,
    quote_job,
    run_load,
    run_one_online,
)
from repro.sim.environment import CloudBurstEnvironment
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadGenerator

from .conftest import make_job


@pytest.fixture
def env(fast_config) -> CloudBurstEnvironment:
    env = CloudBurstEnvironment(fast_config)
    gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=11)
    env.pretrain_qrsm(*gen.sample_training_set(150))
    return env


# ----------------------------------------------------------------------
# Quoting
# ----------------------------------------------------------------------
class TestQuoting:
    def test_quote_fields_are_consistent(self, env, job):
        state = env.build_state()
        quote = quote_job(job, state, env.estimator, FixedSlaTicket(600.0))
        assert quote.job_id == job.job_id
        assert quote.now == state.now
        assert quote.est_proc_s == env.estimator.est_proc_time(job)
        assert quote.est_completion == min(
            quote.est_ic_completion, quote.est_ec_completion
        )
        assert quote.est_response_s == quote.est_completion - quote.now
        assert quote.slack_s == quote.promise_s - quote.est_response_s
        assert quote.promise_s == 600.0
        assert quote.placement_hint in ("IC", "EC")

    def test_quote_prices_on_estimate_not_ground_truth(self, env):
        """The promise must come off the QRSM estimate, not the hidden truth."""
        job = make_job(proc_time=10_000.0)  # truth wildly above any estimate
        state = env.build_state()
        quote = quote_job(job, state, env.estimator, ProportionalTicket(60.0, 2.0))
        assert quote.promise_s == 60.0 + 2.0 * quote.est_proc_s
        assert quote.promise_s < 60.0 + 2.0 * job.true_proc_time

    def test_no_ticket_means_infinite_promise(self, env, job):
        quote = quote_job(job, env.build_state(), env.estimator, ticket=None)
        assert quote.promise_s == math.inf
        assert quote.slack_s == math.inf


# ----------------------------------------------------------------------
# Admission policy: every branch of the ladder
# ----------------------------------------------------------------------
def _quote_with_slack(env, job, slack: float):
    """A quote whose slack_s is exactly `slack` (fixed promise arithmetic)."""
    base = quote_job(job, env.build_state(), env.estimator, ticket=None)
    import dataclasses

    return dataclasses.replace(
        base, promise_s=base.est_response_s + slack
    )


class TestAdmissionPolicy:
    def test_accept_when_slack_clears_minimum(self, env, job):
        policy = SLAPolicy(min_slack_s=30.0)
        quote = _quote_with_slack(env, job, 30.0)
        result = policy.admit(quote, in_system=0, upload_backlog_mb=0.0)
        assert result.decision == AdmissionDecision.ACCEPT
        assert result.admitted and not result.degraded

    def test_degraded_band(self, env, job):
        policy = SLAPolicy(min_slack_s=30.0, degraded_slack_s=-60.0)
        quote = _quote_with_slack(env, job, -10.0)
        result = policy.admit(quote, in_system=0, upload_backlog_mb=0.0)
        assert result.decision == AdmissionDecision.ACCEPT_DEGRADED
        assert result.admitted and result.degraded
        assert result.reason == "slack"

    def test_reject_on_slack(self, env, job):
        policy = SLAPolicy(min_slack_s=30.0, degraded_slack_s=-60.0)
        quote = _quote_with_slack(env, job, -120.0)
        result = policy.admit(quote, in_system=0, upload_backlog_mb=0.0)
        assert result.decision == AdmissionDecision.REJECT
        assert result.reason == "slack"

    def test_reject_on_in_system_backpressure(self, env, job):
        policy = SLAPolicy(max_in_system=5)
        quote = _quote_with_slack(env, job, 1e9)  # slack is irrelevant here
        result = policy.admit(quote, in_system=5, upload_backlog_mb=0.0)
        assert result.decision == AdmissionDecision.REJECT
        assert result.reason == "in_system"

    def test_reject_on_upload_backlog_backpressure(self, env, job):
        policy = SLAPolicy(max_upload_backlog_mb=500.0)
        quote = _quote_with_slack(env, job, 1e9)
        result = policy.admit(quote, in_system=0, upload_backlog_mb=500.0)
        assert result.decision == AdmissionDecision.REJECT
        assert result.reason == "upload_backlog"

    def test_accept_all_accepts_hopeless_quotes(self, env, job):
        policy = SLAPolicy.accept_all()
        quote = _quote_with_slack(env, job, -1e12)
        assert policy.admit(quote, 10_000, 1e9).admitted

    def test_validation(self):
        with pytest.raises(ValueError):
            SLAPolicy(min_slack_s=0.0, degraded_slack_s=10.0)
        with pytest.raises(ValueError):
            SLAPolicy(max_in_system=0)
        with pytest.raises(ValueError):
            SLAPolicy(max_upload_backlog_mb=-1.0)


# ----------------------------------------------------------------------
# Broker behaviour
# ----------------------------------------------------------------------
class TestBroker:
    def test_admitted_jobs_get_promises_stamped(self, env):
        policy = SLAPolicy(ticket=FixedSlaTicket(100_000.0))
        broker = BurstBroker(env, make_scheduler("Greedy", env), policy=policy)
        outcomes = broker.submit([make_job(job_id=1), make_job(job_id=2)],
                                 arrival_time=0.0)
        assert all(o.admitted for o in outcomes)
        trace = broker.finish()
        assert len(trace.records) == 2
        assert all(r.promise_s == 100_000.0 for r in trace.records)

    def test_rejected_jobs_never_enter_the_system(self, env):
        policy = SLAPolicy(ticket=FixedSlaTicket(100_000.0), max_in_system=2)
        broker = BurstBroker(env, make_scheduler("Greedy", env), policy=policy)
        jobs = [make_job(job_id=i) for i in range(1, 6)]
        outcomes = broker.submit(jobs, arrival_time=0.0)
        decisions = [o.result.decision for o in outcomes]
        assert decisions == ["accept", "accept", "reject", "reject", "reject"]
        assert all(
            o.result.reason == "in_system" for o in outcomes if not o.admitted
        )
        trace = broker.finish()
        assert sorted(r.job_id for r in trace.records) == [1, 2]

    def test_backpressure_bounds_in_flight_work_under_overload(self, env):
        """Open-loop overload: in-system never exceeds the configured cap."""
        policy = SLAPolicy(ticket=FixedSlaTicket(100_000.0), max_in_system=4)
        broker = BurstBroker(env, make_scheduler("Op", env), policy=policy)
        high_water = 0
        for i in range(40):
            broker.submit([make_job(job_id=i + 1)], arrival_time=float(i))
            high_water = max(high_water, env.jobs_in_system)
        assert high_water <= 4
        assert broker.stats.rejected > 0
        assert broker.stats.rejections_by_reason.get("in_system", 0) > 0
        trace = broker.finish()
        assert len(trace.records) == broker.stats.admitted

    def test_degraded_outcome_flags_the_quote(self, env):
        policy = SLAPolicy(
            ticket=FixedSlaTicket(1.0),  # promise nobody can meet
            min_slack_s=0.0,
            degraded_slack_s=-math.inf,
        )
        broker = BurstBroker(env, make_scheduler("Greedy", env), policy=policy)
        (outcome,) = broker.submit([make_job()], arrival_time=0.0)
        assert outcome.result.degraded
        assert outcome.quote.degraded

    def test_submissions_must_be_time_ordered(self, env):
        broker = BurstBroker(env, make_scheduler("Greedy", env))
        broker.submit([make_job(job_id=1)], arrival_time=100.0)
        with pytest.raises(ValueError):
            broker.submit([make_job(job_id=2)], arrival_time=50.0)

    def test_finished_session_rejects_further_use(self, env):
        broker = BurstBroker(env, make_scheduler("Greedy", env))
        broker.submit([make_job()], arrival_time=0.0)
        broker.finish()
        with pytest.raises(RuntimeError):
            broker.submit([make_job(job_id=2)])
        with pytest.raises(RuntimeError):
            broker.finish()

    def test_trace_carries_admission_metadata(self, env):
        policy = SLAPolicy(ticket=FixedSlaTicket(100_000.0), max_in_system=1)
        broker = BurstBroker(env, make_scheduler("Greedy", env), policy=policy)
        broker.submit([make_job(job_id=i) for i in (1, 2, 3)], arrival_time=0.0)
        trace = broker.finish()
        admission = trace.metadata["admission"]
        assert admission["submitted"] == 3
        assert admission["accepted"] == 1
        assert admission["rejected"] == 2
        assert admission["rejections_by_reason"] == {"in_system": 2}


# ----------------------------------------------------------------------
# Offline/online equivalence — the correctness anchor
# ----------------------------------------------------------------------
class TestOfflineOnlineEquivalence:
    @pytest.mark.parametrize("scheduler_name", PAPER_SCHEDULERS)
    def test_broker_replay_is_trace_identical(self, scheduler_name):
        spec = ExperimentSpec(bucket=Bucket.UNIFORM, n_batches=4)
        batches = build_workload(spec)
        offline = run_one(scheduler_name, spec, batches=batches)
        online = run_one_online(scheduler_name, spec, batches=batches)
        assert len(offline.records) == len(online.records)
        for off, on in zip(offline.records, online.records):
            assert asdict(off) == asdict(on)
        assert offline.end_time == online.end_time
        assert offline.arrival_time == online.arrival_time
        assert offline.ic_busy_time == online.ic_busy_time
        assert offline.ec_busy_time == online.ec_busy_time


# ----------------------------------------------------------------------
# Streaming metrics
# ----------------------------------------------------------------------
class TestStreamingStats:
    def test_reservoir_keeps_everything_under_capacity(self):
        r = ReservoirSampler(capacity=100, seed=1)
        for v in range(50):
            r.add(float(v))
        assert sorted(r.values) == [float(v) for v in range(50)]
        assert r.percentile(50) == 24.5

    def test_reservoir_is_bounded_and_deterministic(self):
        a = ReservoirSampler(capacity=64, seed=7)
        b = ReservoirSampler(capacity=64, seed=7)
        for v in range(10_000):
            a.add(float(v))
            b.add(float(v))
        assert len(a.values) == 64
        assert a.values == b.values

    def test_empty_reservoir_percentile_is_nan(self):
        assert math.isnan(ReservoirSampler().percentile(50))

    def test_admission_counters(self):
        s = StreamingSLAStats()
        s.on_admission("accept")
        s.on_admission("accept_degraded", "slack")
        s.on_admission("reject", "in_system")
        s.on_admission("reject", "in_system")
        assert s.submitted == 4 and s.admitted == 2
        assert s.rejection_rate == 0.5
        assert s.rejections_by_reason == {"in_system": 2}
        with pytest.raises(ValueError):
            s.on_admission("maybe")

    def test_completion_counters_score_sold_promises(self):
        from repro.sim.tracing import JobRecord

        s = StreamingSLAStats()

        def record(promise, response):
            return JobRecord(
                job_id=1, batch_id=0, arrival_time=0.0, input_mb=1.0,
                output_mb=1.0, true_proc_time=1.0, est_proc_time=1.0,
                completion_time=response, promise_s=promise,
            )

        s.on_complete(record(100.0, 50.0))   # met
        s.on_complete(record(100.0, 150.0))  # violated
        s.on_complete(record(None, 80.0))    # no promise sold: unscored
        assert s.completed == 3
        assert s.sla_met == 1 and s.sla_violated == 1
        assert s.attainment == 0.5
        assert s.mean_response_s == pytest.approx((50 + 150 + 80) / 3)


# ----------------------------------------------------------------------
# Load driver
# ----------------------------------------------------------------------
class TestLoadGen:
    def test_emits_exactly_n_jobs_in_time_order(self):
        config = LoadGenConfig(n_jobs=137, rate_per_s=10.0, seed=3)
        groups = list(generate_arrivals(config))
        assert sum(len(jobs) for _, jobs in groups) == 137
        times = [t for t, _ in groups]
        assert times == sorted(times)
        assert times[0] == 0.0
        ids = [j.job_id for _, jobs in groups for j in jobs]
        assert ids == list(range(1, 138))

    def test_poisson_groups_are_single_jobs(self):
        config = LoadGenConfig(n_jobs=50, process="poisson", seed=4)
        assert all(len(jobs) == 1 for _, jobs in generate_arrivals(config))

    def test_bursty_groups_carry_multiple_jobs(self):
        config = LoadGenConfig(
            n_jobs=200, process="bursty", mean_burst_jobs=8.0, seed=4
        )
        sizes = [len(jobs) for _, jobs in generate_arrivals(config)]
        assert max(sizes) > 1
        assert sum(sizes) == 200

    def test_stream_is_deterministic_per_seed(self):
        config = LoadGenConfig(n_jobs=60, process="bursty", seed=12)
        a = [(t, [j.features.size_mb for j in jobs])
             for t, jobs in generate_arrivals(config)]
        b = [(t, [j.features.size_mb for j in jobs])
             for t, jobs in generate_arrivals(config)]
        assert a == b

    @pytest.mark.parametrize("process", ["poisson", "bursty"])
    def test_schedule_is_the_arrival_stream_without_bodies(self, process):
        config = LoadGenConfig(
            n_jobs=90, process=process, mean_burst_jobs=6.0, seed=21
        )
        assert list(arrival_schedule(config)) == [
            (t, len(jobs)) for t, jobs in generate_arrivals(config)
        ]

    def test_config_validation(self):
        # Refused at construction, before any driver builds a broker or
        # a fleet: under the multiprocess executor a later refusal would
        # leak the workers.
        for overrides, message in [
            ({"n_jobs": 0}, "n_jobs must be positive"),
            ({"rate_per_s": 0.0}, "rate_per_s must be positive"),
            ({"process": "sawtooth"}, "process must be 'poisson' or 'bursty'"),
            ({"process": "bursty", "mean_burst_jobs": 0.5},
             "mean_burst_jobs must be >= 1"),
            ({"first_arrival_s": -1.0}, "first_arrival_s cannot be negative"),
        ]:
            with pytest.raises(ValueError, match=message):
                LoadGenConfig(**overrides)

    def test_run_load_end_to_end(self, fast_config):
        env = CloudBurstEnvironment(fast_config)
        config = LoadGenConfig(n_jobs=250, rate_per_s=20.0, seed=6)
        policy = SLAPolicy(
            ticket=ProportionalTicket(base_s=300.0, factor=6.0),
            degraded_slack_s=-120.0,
            max_in_system=20,
        )
        result = run_load(env, make_scheduler("Op", env), policy, config)
        stats = result.stats
        assert result.n_submitted == 250 == stats.submitted
        assert stats.admitted + stats.rejected == 250
        assert stats.completed == stats.admitted  # finish() drains everything
        assert result.jobs_per_s > 0
        assert result.latency_percentile_ms(50) <= result.latency_percentile_ms(99)
        assert result.sim_horizon_s > 0
        assert len(result.quote_latency_s) == 250
        rendered = result.render()
        assert "throughput" in rendered
        [latency_line] = [
            line for line in rendered.splitlines() if line.startswith("quote latency")
        ]
        assert "mean" in latency_line and "nan" not in latency_line
