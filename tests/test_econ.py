"""Tests for the cloud-economics subsystem (``repro.econ``).

Covers the four layers and their wiring: price models and the seeded
spot market, billing meters under both billable-quantum regimes, penalty
schedules and the cost ledger, the cost-aware scheduler/admission
surfaces, and the end-to-end determinism contract (double runs produce
bit-identical trace *and* ledger hashes, metering-only econ leaves the
job trace untouched).
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.analysis.determinism import hash_trace
from repro.econ import (
    EMR_HOURLY_QUANTUM_S,
    BillingMeter,
    CostAwarePolicy,
    CostAwareScheduler,
    CostLedger,
    CostModel,
    EconConfig,
    OnDemandPrice,
    PenaltySchedule,
    SpotMarketConfig,
    SpotPreemptionInjector,
    SpotPriceProcess,
    attach_econ,
    promise_for_estimate,
)
from repro.core.base import EcEstimate, ECSiteState
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import build_workload, run_one
from repro.experiments.sweeps import cost_frontier_sweep
from repro.metrics.report import build_report
from repro.metrics.streaming import StreamingSLAStats
from repro.metrics.tickets import ProportionalTicket
from repro.service.policy import AdmissionDecision
from repro.service.quotes import SLAQuote
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.environment import SystemConfig
from repro.sim.tracing import JobRecord, Placement
from repro.workload.distributions import Bucket

from .conftest import make_job, make_state

FAST = ExperimentSpec(
    bucket=Bucket.UNIFORM, n_batches=2, mean_jobs_per_batch=6,
    system=SystemConfig(ic_machines=4, ec_machines=2, seed=77),
)


# ----------------------------------------------------------------------
# Price models
# ----------------------------------------------------------------------
class TestOnDemandPrice:
    def test_compute_and_transfer_math(self):
        price = OnDemandPrice(rate_usd_per_hour=0.36, transfer_usd_per_gb=0.10)
        assert price.rate_usd_per_s == pytest.approx(0.0001)
        assert price.compute_usd(3600.0) == pytest.approx(0.36)
        assert price.transfer_usd(1024.0) == pytest.approx(0.10)

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            OnDemandPrice(rate_usd_per_hour=-0.1)


class TestSpotMarket:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpotMarketConfig(base_usd_per_hour=0.0)
        with pytest.raises(ValueError):
            SpotMarketConfig(variation=-0.1)
        with pytest.raises(ValueError):
            SpotMarketConfig(bid_usd_per_hour=0.0)

    def test_preemptible_only_with_finite_bid(self):
        assert not SpotMarketConfig().preemptible
        assert SpotMarketConfig(bid_usd_per_hour=0.2).preemptible

    def test_same_seed_same_path(self):
        paths = []
        for _ in range(2):
            sim = Simulator()
            process = SpotPriceProcess(sim, SpotMarketConfig(), seed=7)
            sim.run(until=600.0)
            paths.append(list(process._prices))
        assert paths[0] == paths[1]
        assert len(paths[0]) == 11  # initial draw + 10 epochs

    def test_zero_variation_is_flat(self):
        sim = Simulator()
        market = SpotMarketConfig(variation=0.0, base_usd_per_hour=0.2)
        process = SpotPriceProcess(sim, market, seed=7)
        sim.run(until=300.0)
        assert all(p == 0.2 for p in process._prices)

    def test_price_at_uses_epoch_in_force(self):
        sim = Simulator()
        process = SpotPriceProcess(sim, SpotMarketConfig(epoch_s=60.0), seed=7)
        sim.run(until=200.0)
        assert process.price_at(0.0) == process._prices[0]
        assert process.price_at(59.9) == process._prices[0]
        assert process.price_at(60.0) == process._prices[1]
        # Before the first sample: clamp to the first epoch.
        assert process.price_at(-5.0) == process._prices[0]


# ----------------------------------------------------------------------
# Penalty schedules and the ledger
# ----------------------------------------------------------------------
class TestPenaltySchedule:
    def test_lateness_pricing(self):
        schedule = PenaltySchedule(flat_usd=1.0, late_usd_per_s=0.01, cap_usd=5.0)
        assert schedule.usd_for_lateness(-10.0) == 0.0
        assert schedule.usd_for_lateness(0.0) == 0.0
        assert schedule.usd_for_lateness(100.0) == pytest.approx(2.0)
        assert schedule.usd_for_lateness(1e6) == 5.0  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltySchedule(flat_usd=-1.0)
        with pytest.raises(ValueError):
            PenaltySchedule(flat_usd=2.0, cap_usd=1.0)

    def test_sold_promise_beats_ticket(self):
        schedule = PenaltySchedule(
            ticket=ProportionalTicket(base_s=100.0, factor=1.0)
        )
        record = JobRecord(
            job_id=1, batch_id=0, arrival_time=0.0, input_mb=10.0,
            output_mb=5.0, est_proc_time=50.0, true_proc_time=50.0,
            promise_s=10.0, completion_time=100.0,
        )
        # Sold promise of 10 s, landed at 100 s -> 90 s late.
        assert schedule.penalty_usd(record) == schedule.usd_for_lateness(90.0)
        unsold = replace(record, promise_s=None)
        # Ticket promise: 100 + 1.0 * 50 = 150 s, on time.
        assert schedule.penalty_usd(unsold) == 0.0

    def test_scaled_moves_only_the_money_axis(self):
        schedule = PenaltySchedule(flat_usd=1.0, late_usd_per_s=0.01, cap_usd=5.0)
        double = schedule.scaled(2.0)
        assert double.flat_usd == 2.0
        assert double.late_usd_per_s == 0.02
        assert double.cap_usd == 10.0
        assert double.ticket == schedule.ticket
        assert schedule.scaled(0.0).usd_for_lateness(1e9) == 0.0
        with pytest.raises(ValueError):
            schedule.scaled(-1.0)

    def test_promise_for_estimate_uses_the_estimate(self):
        ticket = ProportionalTicket(base_s=100.0, factor=2.0)
        job = make_job(proc_time=999.0)  # truth must not leak into the promise
        assert promise_for_estimate(job, 50.0, ticket) == pytest.approx(200.0)


class TestCostLedger:
    def test_derived_totals(self):
        ledger = CostLedger(
            on_demand_usd=1.0, spot_usd=2.0, transfer_usd=0.5, penalty_usd=3.0
        )
        assert ledger.compute_usd == 3.0
        assert ledger.ec_spend_usd == 3.5
        assert ledger.total_usd == 6.5
        out = ledger.as_dict()
        assert out["total_usd"] == 6.5
        assert out["ec_spend_usd"] == 3.5

    def test_hash_is_stable_and_value_sensitive(self):
        a = CostLedger(on_demand_usd=1.0)
        b = CostLedger(on_demand_usd=1.0)
        assert a.ledger_hash() == b.ledger_hash()
        b.on_demand_usd += 1e-12  # bit-level sensitivity via float hex
        assert a.ledger_hash() != b.ledger_hash()

    def test_render_mentions_the_counters(self):
        text = CostLedger(preemptions=3, violations=2, completed=9).render()
        assert "3 preemptions" in text and "2/9 late jobs" in text


# ----------------------------------------------------------------------
# Billing meters
# ----------------------------------------------------------------------
class TestBillingMeter:
    def test_per_second_quantum_bills_exact_seconds(self):
        ledger = CostLedger()
        meter = BillingMeter(ledger, OnDemandPrice(rate_usd_per_hour=3.6))
        meter.bill_interval(10.0, 130.0)
        assert ledger.billed_quantums == 120
        assert ledger.on_demand_usd == pytest.approx(0.12)

    def test_emr_hourly_quantum_rounds_up(self):
        ledger = CostLedger()
        meter = BillingMeter(
            ledger, OnDemandPrice(rate_usd_per_hour=0.34),
            quantum_s=EMR_HOURLY_QUANTUM_S,
        )
        meter.bill_interval(0.0, 61.0)  # one minute of use, one hour billed
        assert ledger.billed_quantums == 1
        assert ledger.on_demand_usd == pytest.approx(0.34)
        meter.bill_interval(0.0, 3601.0)  # just over an hour -> two hours
        assert ledger.billed_quantums == 3

    def test_exact_quantum_boundary_is_not_double_billed(self):
        ledger = CostLedger()
        meter = BillingMeter(ledger, OnDemandPrice(), quantum_s=3600.0)
        meter.bill_interval(0.0, 3600.0)
        assert ledger.billed_quantums == 1

    def test_empty_interval_bills_nothing(self):
        ledger = CostLedger()
        meter = BillingMeter(ledger, OnDemandPrice())
        assert meter.bill_interval(5.0, 5.0) == 0.0
        assert ledger.billed_quantums == 0

    def test_spot_interval_prices_per_quantum(self):
        sim = Simulator()
        market = SpotMarketConfig(variation=0.0, base_usd_per_hour=0.36)
        process = SpotPriceProcess(sim, market, seed=1)
        ledger = CostLedger()
        meter = BillingMeter(
            ledger, OnDemandPrice(), quantum_s=1.0, spot=process
        )
        meter.bill_interval(0.0, 100.0)
        assert ledger.spot_usd == pytest.approx(100.0 * 0.36 / 3600.0)
        assert ledger.on_demand_usd == 0.0

    def test_busy_mode_bills_only_completed_ec_records(self):
        ledger = CostLedger()
        meter = BillingMeter(ledger, OnDemandPrice(rate_usd_per_hour=3.6))
        ec = JobRecord(
            job_id=1, batch_id=0, arrival_time=0.0, input_mb=1.0,
            output_mb=1.0, est_proc_time=10.0, true_proc_time=10.0,
            placement=Placement.EC, exec_start=100.0, exec_end=160.0,
        )
        ic = replace(ec, job_id=2, placement=Placement.IC)
        meter.on_record_complete(ec)
        meter.on_record_complete(ic)
        assert ledger.billed_quantums == 60  # the EC execution only

    def test_pool_mode_rents_the_whole_pool(self):
        sim = Simulator()
        cluster = Cluster(sim, "ec", 2)
        ledger = CostLedger()
        meter = BillingMeter(
            ledger, OnDemandPrice(rate_usd_per_hour=3.6), mode="pool"
        )
        meter.watch(cluster)
        sim.run(until=100.0)
        cluster.add_machine()
        sim.run(until=200.0)
        meter.close_all(200.0)
        # 2 machines x 200 s + 1 machine x 100 s = 500 machine-seconds.
        assert ledger.on_demand_usd == pytest.approx(0.5)
        assert not meter._sessions

    def test_validation(self):
        with pytest.raises(ValueError):
            BillingMeter(CostLedger(), OnDemandPrice(), quantum_s=0.0)
        with pytest.raises(ValueError):
            BillingMeter(CostLedger(), OnDemandPrice(), mode="hourly")


# ----------------------------------------------------------------------
# Cluster preemption mechanics
# ----------------------------------------------------------------------
def _submit_tracking(cluster, item, standard_time, done):
    cluster.submit(item, standard_time, lambda it, m: done.append((it, cluster.sim.now)))


class TestClusterPreemption:
    def test_preempt_requeues_and_restarts_from_scratch(self):
        sim = Simulator()
        cluster = Cluster(sim, "ec", 1)
        done: list = []
        _submit_tracking(cluster, "a", 100.0, done)
        sim.run(until=40.0)
        interrupted = cluster.preempt_machine(cluster.machines[0])
        assert interrupted == ("a", 40.0)
        assert cluster.jobs_preempted == 1
        # Requeued to the front and restarted immediately on the same
        # (still online) machine: full 100 s from t=40.
        sim.run(until=1000.0)
        assert done == [("a", 140.0)]

    def test_preempt_idle_machine_is_a_noop(self):
        sim = Simulator()
        cluster = Cluster(sim, "ec", 1)
        assert cluster.preempt_machine(cluster.machines[0]) is None
        assert cluster.jobs_preempted == 0

    def test_offline_machine_is_skipped_by_dispatch(self):
        sim = Simulator()
        cluster = Cluster(sim, "ec", 1)
        cluster.take_offline(cluster.machines[0])
        done: list = []
        _submit_tracking(cluster, "a", 10.0, done)
        sim.run(until=100.0)
        assert done == [] and cluster.queue_length == 1
        cluster.bring_online(cluster.machines[0])
        sim.run(until=200.0)
        assert done == [("a", 110.0)]

    def test_preempted_draining_machine_retires_immediately(self):
        sim = Simulator()
        cluster = Cluster(sim, "ec", 2)
        done: list = []
        _submit_tracking(cluster, "a", 100.0, done)
        _submit_tracking(cluster, "b", 100.0, done)
        removed: list = []
        cluster.on_machine_removed = removed.append
        sim.run(until=10.0)
        assert cluster.retire_machine()  # both busy -> marks one draining
        victim = next(iter(cluster._draining))
        cluster.preempt_machine(victim)
        assert victim not in cluster.machines
        assert removed == [victim]
        sim.run(until=1000.0)
        assert len(done) == 2  # the preempted job reran on the survivor


class TestSpotPreemptionInjector:
    def _cluster_with_job(self):
        sim = Simulator()
        cluster = Cluster(sim, "ec", 2)
        done: list = []
        _submit_tracking(cluster, "a", 100.0, done)
        return sim, cluster, done

    def test_crossing_suspends_and_recovery_resumes(self):
        sim, cluster, done = self._cluster_with_job()
        # Huge epoch: the process's own ticks stay out of the way, the
        # test drives the crossings by hand.
        process = SpotPriceProcess(
            sim, SpotMarketConfig(variation=0.0, epoch_s=1e9), seed=1
        )
        injector = SpotPreemptionInjector(
            sim, cluster, process, bid_usd_per_hour=0.2
        )
        sim.run(until=10.0)
        injector._on_price(0.5)  # market above bid
        assert injector.preemptions == 1
        assert injector.lost_work_s == pytest.approx(10.0)
        assert cluster.offline_machines == 2
        sim.run(until=500.0)
        assert done == []  # nothing runs while reclaimed
        injector._on_price(0.1)  # market back under bid
        assert cluster.offline_machines == 0
        sim.run(until=1000.0)
        assert done and done[0][1] == pytest.approx(600.0)

    def test_repeated_high_prices_fire_once(self):
        sim, cluster, _ = self._cluster_with_job()
        process = SpotPriceProcess(
            sim, SpotMarketConfig(variation=0.0, epoch_s=1e9), seed=1
        )
        injector = SpotPreemptionInjector(sim, cluster, process, bid_usd_per_hour=0.2)
        sim.run(until=10.0)
        injector._on_price(0.5)
        injector._on_price(0.6)  # still reclaimed: no second sweep
        assert injector.reclaim_events == 1
        assert injector.preemptions == 1


# ----------------------------------------------------------------------
# Cost-aware placement and admission
# ----------------------------------------------------------------------
class _FixedEstimator:
    """Estimator stub with hand-set finish times."""

    def __init__(self, est_proc_s, ic_completion, ec_completion, site=0):
        self._est = est_proc_s
        self._ic = ic_completion
        self._ec = ec_completion
        self._site = site

    def est_proc_time(self, job):
        return self._est

    def ft_ic(self, job, state, est_proc=None):
        return self._ic

    def ft_ec(self, job, state, est_proc=None):
        return EcEstimate(
            upload_end=10.0, exec_start=10.0,
            exec_end=self._ec - 5.0, completion=self._ec, site=self._site,
        )


class TestCostAwareScheduler:
    def _model(self):
        return CostModel(
            on_demand=OnDemandPrice(rate_usd_per_hour=0.36,
                                    transfer_usd_per_gb=0.0),
            penalty=PenaltySchedule(
                flat_usd=5.0, late_usd_per_s=0.01, cap_usd=50.0,
                ticket=ProportionalTicket(base_s=60.0, factor=1.0),
            ),
        )

    def test_bursts_when_penalty_saved_pays_the_invoice(self):
        # Promise 60 + 100 = 160 s; IC lands 400 s late, EC on time.
        estimator = _FixedEstimator(100.0, 560.0, 150.0)
        scheduler = CostAwareScheduler(estimator, cost_model=self._model())
        plan = scheduler.plan([make_job()], make_state())
        assert [d.placement for d in plan.decisions] == [Placement.EC]

    def test_prices_the_invoice_at_the_chosen_site(self):
        # Site 1 runs 1000x slower, so its invoice (~10 USD of instance
        # time) outweighs the 9 USD penalty the burst would save.
        state = make_state()
        state.extra_sites.append(ECSiteState(name="slow", ec_free=[0.0], ec_speed=0.001))
        for site, placement in ((0, Placement.EC), (1, Placement.IC)):
            estimator = _FixedEstimator(100.0, 560.0, 150.0, site=site)
            scheduler = CostAwareScheduler(estimator, cost_model=self._model())
            plan = scheduler.plan([make_job()], state.clone())
            assert [d.placement for d in plan.decisions] == [placement]

    def test_stays_local_when_both_on_time(self):
        estimator = _FixedEstimator(100.0, 150.0, 120.0)
        scheduler = CostAwareScheduler(estimator, cost_model=self._model())
        plan = scheduler.plan([make_job()], make_state())
        assert [d.placement for d in plan.decisions] == [Placement.IC]

    def test_stays_local_when_ec_is_late_too(self):
        # Both placements blow the cap: no penalty is avoided by paying.
        estimator = _FixedEstimator(100.0, 99000.0, 98000.0)
        scheduler = CostAwareScheduler(estimator, cost_model=self._model())
        plan = scheduler.plan([make_job()], make_state())
        assert [d.placement for d in plan.decisions] == [Placement.IC]

    def test_registered_as_fifth_scheduler(self):
        trace = run_one("CostAware", FAST)
        assert trace.records
        assert all(r.completed for r in trace.records)


class TestCostAwarePolicy:
    def _quote(self, slack_s):
        promise = 100.0
        return SLAQuote(
            job_id=1, sub_id=1, now=0.0, est_proc_s=50.0,
            est_ic_completion=90.0, est_ec_completion=95.0,
            est_completion=promise - slack_s, promise_s=promise,
        )

    def test_rejects_guaranteed_loss(self):
        policy = CostAwarePolicy(
            penalty=PenaltySchedule(flat_usd=1.0, late_usd_per_s=0.01)
        )
        result = policy.admit(self._quote(slack_s=-50.0), 0, 0.0)
        assert result.decision is AdmissionDecision.REJECT
        assert result.reason == "expected_penalty"

    def test_accepts_within_budget(self):
        policy = CostAwarePolicy(
            penalty=PenaltySchedule(flat_usd=1.0, late_usd_per_s=0.01),
            max_expected_penalty_usd=5.0,
        )
        result = policy.admit(self._quote(slack_s=-50.0), 0, 0.0)
        assert result.admitted
        result = policy.admit(self._quote(slack_s=20.0), 0, 0.0)
        assert result.decision is AdmissionDecision.ACCEPT

    def test_standard_ladder_still_runs_first(self):
        policy = CostAwarePolicy(max_in_system=1)
        result = policy.admit(self._quote(slack_s=20.0), in_system=5,
                              upload_backlog_mb=0.0)
        assert result.reason == "in_system"

    def test_validation(self):
        with pytest.raises(ValueError):
            CostAwarePolicy(max_expected_penalty_usd=-1.0)
        assert math.isinf(
            CostAwarePolicy(max_expected_penalty_usd=math.inf)
            .max_expected_penalty_usd
        )


# ----------------------------------------------------------------------
# End-to-end wiring and determinism
# ----------------------------------------------------------------------
def _run_with_econ(config: EconConfig, stats=None):
    captured = {}

    def hook(env):
        captured["runtime"] = attach_econ(env, config, stats=stats)

    trace = run_one("Op", FAST, env_hook=hook)
    return trace, captured["runtime"]


class TestAttachEcon:
    def test_metering_only_leaves_trace_untouched(self):
        bare = run_one("Op", FAST)
        metered, runtime = _run_with_econ(EconConfig(spot=SpotMarketConfig()))
        assert hash_trace(bare) == hash_trace(metered)
        assert "econ" not in bare.metadata
        econ = metered.metadata["econ"]
        assert econ["spot"] is True and econ["spot_preemptible"] is False
        assert econ["spot_usd"] > 0.0
        assert runtime.ledger.completed == len(metered.records)

    def test_double_run_identical_ledgers(self):
        config = EconConfig(
            spot=SpotMarketConfig(bid_usd_per_hour=0.13, variation=0.4)
        )
        trace_a, runtime_a = _run_with_econ(config)
        trace_b, runtime_b = _run_with_econ(config)
        assert hash_trace(trace_a) == hash_trace(trace_b)
        assert runtime_a.ledger.ledger_hash() == runtime_b.ledger.ledger_hash()
        assert trace_a.metadata["econ"] == trace_b.metadata["econ"]

    def test_penalties_feed_streaming_stats(self):
        stats = StreamingSLAStats(reservoir_seed=1)
        schedule = PenaltySchedule(
            flat_usd=1.0, late_usd_per_s=0.01,
            ticket=ProportionalTicket(base_s=1.0, factor=0.01),  # always late
        )
        _, runtime = _run_with_econ(EconConfig(penalty=schedule), stats=stats)
        assert runtime.ledger.violations > 0
        assert stats.penalties_accrued == runtime.ledger.violations
        assert stats.penalty_usd == pytest.approx(runtime.ledger.penalty_usd)
        assert "SLA penalties" in stats.render()

    def test_cost_lands_in_comparison_report(self):
        trace, _ = _run_with_econ(EconConfig())
        bare = run_one("Greedy", FAST)
        comparison = build_report({"Op": trace, "Greedy": bare})
        row = comparison.reports["Op"].as_row()
        assert row["cost_usd"] == round(trace.metadata["econ"]["total_usd"], 2)
        assert comparison.reports["Greedy"].total_cost_usd is None
        assert "cost_usd" in comparison.render()

    def test_pool_billing_covers_rented_time(self):
        config = EconConfig(billing="pool")
        trace, runtime = _run_with_econ(config)
        rate = config.on_demand.rate_usd_per_s
        # Rental invoices busy *and* idle machine time, so it dominates
        # the busy-time integral the trace records.
        assert runtime.ledger.on_demand_usd >= trace.ec_busy_time * rate - 1e-9
        assert runtime.ledger.billed_quantums > 0


class TestCostFrontier:
    def test_ec_spend_weakly_monotone_in_tightness(self):
        result = cost_frontier_sweep(FAST, tightness=(0.0, 1.0, 4.0))
        assert result.ec_spend_usd == sorted(result.ec_spend_usd)
        assert result.ec_spend_usd[0] == 0.0  # free violations: never burst
        assert "tightness" in result.render()
