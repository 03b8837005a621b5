"""Fault injection and design-space sweep tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import build_workload, run_one
from repro.experiments.sweeps import arrival_rate_sweep, bandwidth_sweep, tolerance_sweep
from repro.models.bandwidth import DiurnalBandwidthProfile
from repro.sim.engine import Simulator
from repro.sim.environment import SystemConfig
from repro.sim.faults import OutageInjector, OutageWindow, random_outage_schedule
from repro.sim.network import CapacityProcess, FluidLink
from repro.workload.distributions import Bucket

FAST = ExperimentSpec(
    bucket=Bucket.LARGE, n_batches=2, mean_jobs_per_batch=8,
    system=SystemConfig(ic_machines=4, ec_machines=2, seed=81),
)


def flat_capacity(sim, mbps=4.0, variation=0.0):
    profile = DiurnalBandwidthProfile(
        base_mbps=mbps, daily_amplitude=0.0, half_daily_amplitude=0.0
    )
    return CapacityProcess(sim, profile, np.random.default_rng(0), variation=variation)


class TestOutageWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutageWindow(start_s=-1.0, duration_s=10.0)
        with pytest.raises(ValueError):
            OutageWindow(start_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            OutageWindow(start_s=0.0, duration_s=10.0, residual_fraction=0.0)


class TestCapacityOutage:
    def test_begin_outage_pins_capacity(self):
        sim = Simulator()
        cap = flat_capacity(sim, mbps=4.0)
        cap.begin_outage(duration_s=100.0, residual_fraction=0.1)
        assert cap.current_mbps == pytest.approx(0.4)
        # Epoch ticks inside the window keep the pin.
        sim.run(until=50.0)
        assert cap.current_mbps == pytest.approx(0.4)
        # After the window the profile returns.
        sim.run(until=140.0)
        assert cap.current_mbps == pytest.approx(4.0)

    def test_outage_slows_transfer(self):
        sim = Simulator()
        cap = flat_capacity(sim, mbps=4.0)
        link = FluidLink(sim, cap, per_thread_mbps=10.0)
        done = []
        link.start_transfer(40.0, 1, lambda t: done.append(sim.now))
        sim.schedule(5.0, cap.begin_outage, 100.0, 0.05)
        sim.run(until=500.0)
        # 20 MB by t=5; then 0.2 MB/s for 100 s (20 MB more at... 0.2*100=20MB)
        # -> finishes right around the end of the outage window.
        assert done and 100.0 <= done[0] <= 110.0

    def test_invalid_outage_args(self):
        sim = Simulator()
        cap = flat_capacity(sim)
        with pytest.raises(ValueError):
            cap.begin_outage(0.0)
        with pytest.raises(ValueError):
            cap.begin_outage(10.0, residual_fraction=2.0)


class TestOutageInjector:
    def test_windows_fire_in_order(self):
        sim = Simulator()
        cap = flat_capacity(sim, mbps=4.0)
        injector = OutageInjector(
            sim, [cap],
            [OutageWindow(start_s=10.0, duration_s=5.0),
             OutageWindow(start_s=50.0, duration_s=5.0)],
        )
        sim.run(until=100.0)
        assert injector.fired == 2

    def test_environment_survives_outage(self):
        def hook(env):
            OutageInjector(
                env.sim, [env.up_capacity, env.down_capacity],
                [OutageWindow(start_s=60.0, duration_s=120.0)],
            )
        trace = run_one("Op", FAST, env_hook=hook)
        assert all(r.completed for r in trace.records)
        trace.validate()

    def test_random_schedule(self):
        rng = np.random.default_rng(3)
        windows = random_outage_schedule(rng, horizon_s=1000.0, n_outages=4)
        assert len(windows) == 4
        for w in windows:
            assert 60.0 <= w.start_s <= 1000.0
            assert w.duration_s >= 10.0

    def test_random_schedule_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            random_outage_schedule(rng, horizon_s=10.0, earliest_s=60.0)
        with pytest.raises(ValueError):
            random_outage_schedule(rng, horizon_s=1000.0, n_outages=-1)


class TestSweeps:
    def test_bandwidth_sweep_structure(self):
        sweep = bandwidth_sweep(FAST, scales=(0.2, 1.0))
        assert sweep.scales == [0.2, 1.0]
        assert len(sweep.gains_pct) == 2
        assert sweep.burst_ratios[0] <= sweep.burst_ratios[1] + 0.05
        assert "bandwidth sweep" in sweep.render()

    def test_arrival_rate_sweep_structure(self):
        sweep = arrival_rate_sweep(FAST, mean_jobs=(4.0, 12.0))
        assert sweep.mean_jobs == [4.0, 12.0]
        assert sweep.ic_only_utils[0] < sweep.ic_only_utils[1]
        assert "arrival-rate sweep" in sweep.render()

    def test_tolerance_sweep_monotone(self):
        sweep = tolerance_sweep(FAST, tolerances=(0, 2, 8))
        assert sweep.areas == sorted(sweep.areas)
        assert "tolerance sweep" in sweep.render()


# ----------------------------------------------------------------------
# Edge cases: abutting windows, outages over spot preemption, scaling
# ----------------------------------------------------------------------
class TestOutageEdgeCases:
    def test_back_to_back_windows_keep_capacity_pinned(self):
        """A zero-length gap between windows must not let capacity pop up."""
        sim = Simulator()
        cap = flat_capacity(sim, mbps=4.0)
        OutageInjector(
            sim, [cap],
            [OutageWindow(start_s=10.0, duration_s=50.0, residual_fraction=0.1),
             OutageWindow(start_s=60.0, duration_s=50.0, residual_fraction=0.1)],
        )
        for until in (15.0, 59.0, 61.0, 105.0):
            sim.run(until=until)
            assert cap.current_mbps == pytest.approx(0.4), until
        # First epoch after the second window closes: profile returns.
        sim.run(until=150.0)
        assert cap.current_mbps == pytest.approx(4.0)

    def test_outage_overlapping_spot_preemption(self):
        """A link outage and a spot reclaim in force at once stay sound.

        The spot market (bid below the epoch prices' upper range) reclaims
        the EC pool mid-run while a long outage has the links pinned at
        5% capacity; the run must still drain every job and stay
        bit-for-bit deterministic, trace and ledger both.
        """
        from repro.analysis.determinism import hash_trace
        from repro.econ import EconConfig, SpotMarketConfig, attach_econ
        from repro.sim.faults import OutageInjector, OutageWindow

        def run_once():
            captured = {}

            def hook(env):
                captured["runtime"] = attach_econ(
                    env,
                    EconConfig(
                        spot=SpotMarketConfig(
                            bid_usd_per_hour=0.11, variation=0.4
                        )
                    ),
                )
                captured["injector"] = OutageInjector(
                    env.sim, [env.up_capacity, env.down_capacity],
                    [OutageWindow(start_s=60.0, duration_s=540.0)],
                )

            trace = run_one("Op", FAST, env_hook=hook)
            return trace, captured

        trace_a, cap_a = run_once()
        trace_b, cap_b = run_once()
        assert cap_a["runtime"].ledger.preemptions > 0
        assert cap_a["injector"].fired == 1
        assert all(r.completed for r in trace_a.records)
        trace_a.validate()
        assert hash_trace(trace_a) == hash_trace(trace_b)
        assert (cap_a["runtime"].ledger.ledger_hash()
                == cap_b["runtime"].ledger.ledger_hash())

    def test_autoscaler_scale_down_during_spot_suspension(self):
        """Retiring idle machines while the pool is offline must not wedge.

        Suspended (offline) machines are idle, so a sustained reclaim
        looks exactly like the idle pool the scale-down rule targets; the
        retired machines must leave the offline set with them and the
        pool must keep working once the market recovers.
        """
        from repro.econ import (SpotMarketConfig, SpotPreemptionInjector,
                                SpotPriceProcess)
        from repro.sim.cluster import Cluster
        from tests.test_autoscale import queue_driven, start_converger

        sim = Simulator()
        cluster = Cluster(sim, "ec", 4)
        process = SpotPriceProcess(
            sim, SpotMarketConfig(variation=0.0, epoch_s=1e9), seed=1
        )
        injector = SpotPreemptionInjector(
            sim, cluster, process, bid_usd_per_hour=0.2
        )
        # queue_at_least is set out of reach: a scale-up mid-reclaim
        # would rent a fresh, *online* instance and serve the queue —
        # this test pins the scale-down path specifically.
        start_converger(sim, cluster, queue_driven(
            min_capacity=1, max_capacity=4, interval_s=10.0,
            sustain_periods=1, queue_at_least=100,
        ))
        sim.run(until=5.0)
        injector._on_price(0.5)  # reclaim: the whole (idle) pool offline
        assert cluster.offline_machines == cluster.n_machines == 4
        sim.run(until=200.0)  # scaler ticks against an all-offline pool
        assert cluster.n_machines == 1  # the policies' min_capacity
        assert cluster.offline_machines <= cluster.n_machines
        # Work arriving mid-suspension queues; it must not wedge the
        # drained pool once the market recovers.
        done: list = []
        cluster.submit("a", 30.0, lambda it, m: done.append(sim.now))
        sim.run(until=300.0)
        assert done == []  # still suspended, nothing ran
        injector._on_price(0.1)  # market recovers
        sim.run(until=500.0)
        assert len(done) == 1  # the queued job drained on the survivor
