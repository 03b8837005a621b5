"""Tests for the runtime invariant checker.

Two angles: clean end-to-end runs must pass with every counter actually
moving (proof the hooks are wired, not silently dormant), and each
invariant must fire on a manufactured violation. Violations are staged
against small stub objects — the real environment never produces them,
which is rather the point.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.analysis.invariants import (
    EnvironmentInvariants,
    InvariantError,
    install_invariants,
    invariants_enabled,
)
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_one
from repro.metrics.streaming import StreamingSLAStats
from repro.sim.engine import Event
from repro.sim.environment import CloudBurstEnvironment
from repro.sim.pipeline import PipelineItem, SizeQueue
from repro.sim.tracing import JobRecord, RunTrace

#: Two small batches — enough to exercise uploads, bursts and the drain.
SMALL_SPEC = ExperimentSpec(
    n_batches=2, mean_jobs_per_batch=4.0, training_samples=50
)


def _noop() -> None:
    pass


def make_checker(**env_attrs) -> EnvironmentInvariants:
    """Checker bound to a stub environment (direct hook calls)."""
    defaults = dict(
        plugins=[],
        sim=SimpleNamespace(now=0.0),
        jobs_in_system=0,
        _open={},
        upload=SimpleNamespace(name="upload", backlog_mb=0.0),
        download=SimpleNamespace(name="download", backlog_mb=0.0),
        extra_site_runtimes=[],
    )
    defaults.update(env_attrs)
    return EnvironmentInvariants(SimpleNamespace(**defaults))


def completed_record(**overrides) -> JobRecord:
    fields = dict(
        job_id=1,
        batch_id=0,
        arrival_time=0.0,
        input_mb=1.0,
        output_mb=1.0,
        completion_time=5.0,
    )
    fields.update(overrides)
    return JobRecord(**fields)


# ----------------------------------------------------------------------
# Enablement / wiring
# ----------------------------------------------------------------------
class TestWiring:
    @pytest.mark.parametrize("value,expect", [
        ("1", True), ("yes", True), ("on", True),
        ("0", False), ("false", False), ("no", False), ("", False),
    ])
    def test_env_var_parsing(self, monkeypatch, value, expect):
        monkeypatch.setenv("REPRO_INVARIANTS", value)
        assert invariants_enabled() is expect

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
        assert not invariants_enabled()

    def test_environment_self_installs_under_env_var(
        self, monkeypatch, fast_config
    ):
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        env = CloudBurstEnvironment(fast_config)
        assert isinstance(env.plugin(EnvironmentInvariants), EnvironmentInvariants)
        assert env.sim.on_event is not None
        assert env.upload.on_transfer_start is not None

    def test_environment_stays_unhooked_when_disabled(
        self, monkeypatch, fast_config
    ):
        monkeypatch.setenv("REPRO_INVARIANTS", "0")
        env = CloudBurstEnvironment(fast_config)
        assert env.plugin(EnvironmentInvariants) is None
        assert env.sim.on_event is None

    def test_clean_run_exercises_every_hook(self):
        checkers = []
        trace = run_one(
            "OpSIBS",
            SMALL_SPEC,
            env_hook=lambda env: checkers.append(install_invariants(env)),
        )
        assert len(trace.records) > 0
        (checker,) = checkers
        stats = checker.stats
        assert stats.events_checked > 0
        assert stats.transfers_checked > 0
        assert stats.admissions_seen == len(trace.records)
        assert stats.completions_checked == stats.admissions_seen
        assert stats.finishes_checked == 1
        assert "events" in stats.render()


# ----------------------------------------------------------------------
# Engine invariants
# ----------------------------------------------------------------------
class TestEventOrdering:
    def test_monotone_times_pass(self):
        checker = make_checker()
        checker._on_event(Event(time=1.0, seq=0, callback=_noop))
        checker._on_event(Event(time=1.0, seq=1, callback=_noop))
        checker._on_event(Event(time=2.5, seq=0, callback=_noop))
        assert checker.stats.events_checked == 3

    def test_backwards_time_raises(self):
        checker = make_checker()
        checker._on_event(Event(time=5.0, seq=0, callback=_noop))
        with pytest.raises(InvariantError, match="backwards"):
            checker._on_event(Event(time=4.0, seq=1, callback=_noop))

    def test_fifo_tie_break_violation_raises(self):
        checker = make_checker()
        checker._on_event(Event(time=3.0, seq=7, callback=_noop))
        with pytest.raises(InvariantError, match="FIFO"):
            checker._on_event(Event(time=3.0, seq=2, callback=_noop))

    def test_nan_event_time_raises(self):
        checker = make_checker()
        with pytest.raises(InvariantError, match="NaN"):
            checker._on_event(Event(time=math.nan, seq=0, callback=_noop))


# ----------------------------------------------------------------------
# SIBS cross-queue policy
# ----------------------------------------------------------------------
class TestSIBSPolicy:
    def _pipeline(self):
        return SimpleNamespace(name="upload")

    def test_ride_up_is_allowed(self):
        checker = make_checker()
        queue = SizeQueue("upload-large", 10.0, math.inf)
        item = PipelineItem(payload=None, size_mb=2.0)
        queue.active = item
        checker._on_transfer_start(self._pipeline(), queue, item)
        assert checker.stats.transfers_checked == 1

    def test_oversized_item_on_small_queue_raises(self):
        checker = make_checker()
        queue = SizeQueue("upload-small", 0.0, 10.0)
        item = PipelineItem(payload=None, size_mb=50.0)
        queue.active = item
        with pytest.raises(InvariantError, match="SIBS"):
            checker._on_transfer_start(self._pipeline(), queue, item)

    def test_transfer_without_slot_raises(self):
        checker = make_checker()
        queue = SizeQueue("upload-all", 0.0, math.inf)
        item = PipelineItem(payload=None, size_mb=1.0)
        with pytest.raises(InvariantError, match="slot"):
            checker._on_transfer_start(self._pipeline(), queue, item)


# ----------------------------------------------------------------------
# Job conservation + completion-side checks
# ----------------------------------------------------------------------
class TestConservation:
    def test_balanced_completion_passes(self):
        checker = make_checker()
        checker.on_admit(completed_record())
        checker.on_complete(completed_record())
        assert checker.stats.completions_checked == 1

    def test_admitted_mismatch_raises(self):
        checker = make_checker(jobs_in_system=1, _open={"j1": object()})
        checker.on_admit(completed_record())
        with pytest.raises(InvariantError, match="conservation"):
            checker.on_complete(completed_record())

    def test_disagreeing_ledgers_raise(self):
        checker = make_checker(jobs_in_system=2, _open={"j1": object()})
        with pytest.raises(InvariantError, match="ledgers disagree"):
            checker.on_complete(completed_record())

    def test_negative_backlog_raises(self):
        checker = make_checker(
            upload=SimpleNamespace(name="upload", backlog_mb=-0.5)
        )
        checker.on_admit(completed_record())
        with pytest.raises(InvariantError, match="negative backlog"):
            checker.on_complete(completed_record())

    def test_inconsistent_record_raises(self):
        checker = make_checker()
        checker.on_admit(completed_record())
        bad = completed_record(arrival_time=10.0, completion_time=5.0)
        with pytest.raises(InvariantError, match="inconsistent"):
            checker.on_complete(bad)


# ----------------------------------------------------------------------
# End-of-run + broker accounting
# ----------------------------------------------------------------------
class TestFinishChecks:
    def test_clean_finish_passes(self):
        checker = make_checker()
        checker.on_admit(completed_record())
        checker.on_complete(completed_record())
        checker.finalize(RunTrace(records=[completed_record()]))
        assert checker.stats.finishes_checked == 1

    def test_finish_with_inflight_jobs_raises(self):
        checker = make_checker(jobs_in_system=1, _open={"j1": object()})
        with pytest.raises(InvariantError, match="in flight"):
            checker.finalize(RunTrace())

    def test_finish_with_unbalanced_counts_raises(self):
        checker = make_checker()
        checker.on_admit(completed_record())
        with pytest.raises(InvariantError, match="admitted"):
            checker.finalize(RunTrace())

    def test_broker_counters_balanced(self):
        stats = StreamingSLAStats(
            submitted=4,
            accepted=2,
            accepted_degraded=1,
            rejected=1,
            rejections_by_reason={"backlog": 1},
        )
        make_checker().check_broker_counters(stats)

    def test_broker_counter_leak_raises(self):
        stats = StreamingSLAStats(submitted=3, accepted=2)
        with pytest.raises(InvariantError, match="admission conservation"):
            make_checker().check_broker_counters(stats)

    def test_broker_reason_sum_mismatch_raises(self):
        stats = StreamingSLAStats(
            submitted=2, accepted=1, rejected=1, rejections_by_reason={}
        )
        with pytest.raises(InvariantError, match="reasons"):
            make_checker().check_broker_counters(stats)
