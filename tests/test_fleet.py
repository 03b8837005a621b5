"""Unit tests for the sharded multi-tenant fleet (repro.fleet).

Covers the tenancy vocabulary (SLA classes, scaled tickets, quotas), the
stable tenant->shard routing, the quota gate in front of the broker, and
the fleet-level determinism contract: two runs of the same ``(seed,
n_shards)`` agree bit-for-bit on shard trace hashes and on the
fleet SHA-256, and quota refusals surface as a distinct reason all the
way up the aggregated report.
"""

from __future__ import annotations

import pytest

from repro.econ.penalties import PenaltySchedule
from repro.fleet import (
    BRONZE,
    GOLD,
    SILVER,
    FleetConfig,
    FleetManager,
    ScaledTicket,
    SLAClass,
    TenantSpec,
    TenantRegistry,
    UnknownTenantError,
    default_registry,
    run_fleet_load,
    shard_streams,
)
from repro.fleet.sharding import QUOTA_REASON, QuotaExceededError
from repro.metrics.tickets import ProportionalTicket
from repro.service import LoadGenConfig
from repro.service.policy import SLAPolicy
from repro.sim.tracing import JobRecord
from repro.workload.distributions import Bucket


def fast_config(**overrides) -> FleetConfig:
    """A small fleet with a minimal QRSM pretrain (quotes need a fitted
    estimator; unit tests don't need a well-calibrated one)."""
    defaults = dict(n_shards=2, seed=2024, pretrain_jobs=40)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def record(est_proc_time: float = 100.0) -> JobRecord:
    return JobRecord(
        job_id=1,
        batch_id=1,
        arrival_time=0.0,
        input_mb=1.0,
        output_mb=1.0,
        est_proc_time=est_proc_time,
    )


# ----------------------------------------------------------------------
# Tenancy vocabulary
# ----------------------------------------------------------------------
class TestSLAClasses:
    def test_canonical_tiers_order_promises_and_penalties(self):
        assert GOLD.promise_multiplier < SILVER.promise_multiplier
        assert SILVER.promise_multiplier < BRONZE.promise_multiplier
        assert GOLD.penalty_weight > SILVER.penalty_weight > BRONZE.penalty_weight

    def test_invalid_class_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            SLAClass(name="bad", promise_multiplier=0.0, penalty_weight=1.0)
        with pytest.raises(ValueError):
            SLAClass(name="bad", promise_multiplier=1.0, penalty_weight=-1.0)
        with pytest.raises(ValueError):
            SLAClass(
                name="bad",
                promise_multiplier=1.0,
                penalty_weight=1.0,
                default_quota_jobs=0,
            )

    def test_scaled_ticket_multiplies_base_promise(self):
        base = ProportionalTicket(base_s=100.0, factor=2.0)
        rec = record(est_proc_time=50.0)
        scaled = ScaledTicket(base, 0.75)
        assert scaled.promise_s(rec) == pytest.approx(
            0.75 * base.promise_s(rec)
        )
        with pytest.raises(ValueError):
            ScaledTicket(base, 0.0)


class TestTenant:
    def test_gold_policy_rescales_only_the_ticket(self):
        base = SLAPolicy(ticket=ProportionalTicket(base_s=100.0, factor=2.0))
        gold = TenantSpec(tenant_id="g", sla_class=GOLD).policy(base)
        assert isinstance(gold.ticket, ScaledTicket)
        assert gold.ticket.multiplier == GOLD.promise_multiplier
        assert gold.degraded_slack_s == base.degraded_slack_s
        assert gold.max_in_system == base.max_in_system

    def test_silver_policy_is_the_base_unchanged(self):
        base = SLAPolicy(ticket=ProportionalTicket(base_s=100.0, factor=2.0))
        assert TenantSpec(tenant_id="s", sla_class=SILVER).policy(base) is base

    def test_promise_free_base_stays_promise_free(self):
        base = SLAPolicy(ticket=None)
        assert TenantSpec(tenant_id="g", sla_class=GOLD).policy(base) is base

    def test_penalty_schedule_scales_by_class_weight(self):
        base = PenaltySchedule()
        gold = TenantSpec(tenant_id="g", sla_class=GOLD).penalty_schedule(base)
        bronze = TenantSpec(tenant_id="b", sla_class=BRONZE).penalty_schedule(base)
        assert bronze is base  # weight 1.0
        late = record()
        late.promise_s = 10.0
        late.completion_time = 100.0  # 90s late
        assert gold.penalty_usd(late) == pytest.approx(
            GOLD.penalty_weight * base.penalty_usd(late)
        )

    def test_quota_falls_back_to_class_default(self):
        capped_class = SLAClass(
            name="capped",
            promise_multiplier=1.0,
            penalty_weight=1.0,
            default_quota_jobs=7,
        )
        assert TenantSpec(tenant_id="a", sla_class=capped_class).effective_quota_jobs == 7
        assert (
            TenantSpec(
                tenant_id="b", sla_class=capped_class, quota_jobs=3
            ).effective_quota_jobs
            == 3
        )
        assert TenantSpec(tenant_id="c").effective_quota_jobs is None

    def test_tenant_id_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(tenant_id="")
        with pytest.raises(ValueError):
            TenantSpec(tenant_id="a/b")
        with pytest.raises(ValueError):
            TenantSpec(tenant_id="ok", quota_jobs=0)


# ----------------------------------------------------------------------
# Registry and routing
# ----------------------------------------------------------------------
class TestRegistryRouting:
    def test_register_get_and_unknown(self):
        registry = TenantRegistry([TenantSpec(tenant_id="a")])
        assert registry.get("a").tenant_id == "a"
        assert "a" in registry and "zzz" not in registry
        with pytest.raises(ValueError):
            registry.register(TenantSpec(tenant_id="a"))
        with pytest.raises(UnknownTenantError):
            registry.get("zzz")

    def test_shard_index_is_stable_and_in_range(self):
        for n_shards in (1, 2, 4, 8):
            for tenant in default_registry(16):
                index = TenantRegistry.shard_index(tenant.tenant_id, n_shards)
                assert 0 <= index < n_shards
                # Same answer every time — routing is a pure function.
                assert index == TenantRegistry.shard_index(
                    tenant.tenant_id, n_shards
                )

    def test_tenants_for_shard_partitions_the_registry(self):
        registry = default_registry(16)
        n_shards = 4
        routed = [
            t.tenant_id
            for shard in range(n_shards)
            for t in registry.tenants_for_shard(shard, n_shards)
        ]
        assert sorted(routed) == sorted(registry.tenant_ids)

    def test_default_registry_cycles_classes(self):
        registry = default_registry(8)
        classes = [t.sla_class.name for t in registry]
        assert classes == [
            "gold", "silver", "bronze", "bronze",
            "gold", "silver", "bronze", "bronze",
        ]


# ----------------------------------------------------------------------
# Quota gate
# ----------------------------------------------------------------------
class TestQuota:
    def make_fleet(self, quota_jobs: int = 3) -> FleetManager:
        registry = TenantRegistry(
            [TenantSpec(tenant_id="capped", quota_jobs=quota_jobs)]
        )
        return FleetManager(fast_config(n_shards=1), registry)

    def test_overflow_is_refused_with_distinct_reason(self):
        manager = self.make_fleet(quota_jobs=3)
        _, outcomes = manager.submit_count("capped", 5)
        assert len(outcomes) == 5
        refused = [o for o in outcomes if o.result.reason == QUOTA_REASON]
        assert len(refused) == 2
        assert all(not o.admitted for o in refused)
        # Refusals still carry a quote — the client sees the price it
        # would have paid.
        assert all(o.quote is not None for o in refused)

    def test_exhausted_quota_refuses_everything_without_raising(self):
        # BrokerShard.submit itself refuses, never raises.
        manager = self.make_fleet(quota_jobs=2)
        manager.submit_count("capped", 2)
        account = manager.account("capped")
        assert account.quota_remaining == 0
        shard = manager.shard_for("capped")
        _, jobs = shard.synthesize_jobs(3)
        outcomes = shard.submit("capped", jobs)
        assert [o.result.reason for o in outcomes] == [QUOTA_REASON] * 3

    def test_submit_count_on_exhausted_tenant_raises(self):
        # Every fleet driver's path: one submit command that raises.
        manager = self.make_fleet(quota_jobs=2)
        manager.submit_count("capped", 2)
        assert manager.account("capped").quota_remaining == 0
        with pytest.raises(QuotaExceededError) as info:
            manager.submit_count("capped", 3)
        assert (info.value.tenant_id, info.value.quota_jobs) == ("capped", 2)
        assert manager.shard_for("capped").stats.submitted == 2

    def test_refusal_leaves_the_api_substream_untouched(self):
        # A 429 is decided before synthesis: the next tenant on the same
        # shard draws the jobs it would have drawn without that request.
        def roomy_jobs(refuse_first: bool) -> list:
            registry = TenantRegistry([
                TenantSpec(tenant_id="capped", quota_jobs=2),
                TenantSpec(tenant_id="roomy"),
            ])
            manager = FleetManager(fast_config(n_shards=1), registry)
            manager.submit_count("capped", 2)
            if refuse_first:
                with pytest.raises(QuotaExceededError):
                    manager.submit_count("capped", 3)
            _, outcomes = manager.submit_count("roomy", 4)
            return [o.job for o in outcomes]

        refused, control = roomy_jobs(True), roomy_jobs(False)
        assert [j.job_id for j in refused] == [j.job_id for j in control]
        assert refused == control

    def test_quota_counts_admissions_not_submissions(self):
        manager = self.make_fleet(quota_jobs=3)
        account = manager.account("capped")
        assert account.quota_remaining == 3
        _, outcomes = manager.submit_count("capped", 2)
        admitted = sum(1 for o in outcomes if o.admitted)
        assert account.admitted_jobs == admitted
        assert account.quota_remaining == 3 - admitted

    def test_quota_refusals_keep_counters_consistent(self):
        manager = self.make_fleet(quota_jobs=1)
        manager.submit_count("capped", 4)
        stats = manager.shard_for("capped").stats
        assert stats.submitted == 4
        assert (
            stats.accepted + stats.accepted_degraded + stats.rejected
            == stats.submitted
        )
        assert stats.rejections_by_reason.get(QUOTA_REASON, 0) >= 3


# ----------------------------------------------------------------------
# Load config validation
# ----------------------------------------------------------------------
class TestFleetLoadConfig:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_jobs": 0}, "n_jobs must be positive"),
            ({"rate_per_s": 0.0}, "rate_per_s must be positive"),
            ({"process": "uniform"}, "process must be 'poisson' or 'bursty'"),
            ({"mean_burst_jobs": 0.5}, "mean_burst_jobs must be >= 1"),
        ],
    )
    def test_invalid_knobs_refused_at_construction(self, overrides, message):
        # The fleet driver takes the service's LoadGenConfig. Bad knobs are
        # refused here, before run_fleet_load builds a fleet. Under the
        # multiprocess executor, a later refusal would leak the workers.
        with pytest.raises(ValueError, match=message):
            LoadGenConfig(**overrides)


# ----------------------------------------------------------------------
# The per-shard split and the driver's refusals
# ----------------------------------------------------------------------
class TestShardStreams:
    def test_split_covers_populated_shards_only(self):
        load = LoadGenConfig(n_jobs=101, process="bursty", seed=5)
        streams = shard_streams(load, {0: ["a"], 1: [], 2: ["b", "c"]})
        assert sorted(streams) == [0, 2]
        assert sum(s.n_jobs for s in streams.values()) == 101
        assert len({s.seed for s in streams.values()}) == 2
        assert all(s.process == "bursty" for s in streams.values())

    def test_no_populated_shard_is_refused(self):
        with pytest.raises(ValueError, match="no shard has any tenants"):
            shard_streams(LoadGenConfig(n_jobs=10), {0: [], 1: []})

    def test_bucket_mismatch_refused_before_any_worker_spawns(self):
        import multiprocessing

        with pytest.raises(ValueError, match="bucket"):
            run_fleet_load(
                fast_config(executor="multiprocess"),
                LoadGenConfig(n_jobs=10, bucket=Bucket.LARGE),
                registry=default_registry(4),
            )
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Fleet determinism and aggregation
# ----------------------------------------------------------------------
class TestFleetDeterminism:
    def run_once(self, seed: int = 2024):
        registry = default_registry(7)
        registry.register(
            TenantSpec(tenant_id="starved", sla_class=BRONZE, quota_jobs=5)
        )
        return run_fleet_load(
            fast_config(n_shards=2, seed=seed),
            LoadGenConfig(
                n_jobs=300, rate_per_s=50.0, process="bursty", seed=seed
            ),
            registry=registry,
        )

    def test_double_run_agrees_bit_for_bit(self):
        first, second = self.run_once(), self.run_once()
        assert first.report.shard_hashes == second.report.shard_hashes
        assert first.report.sha256 == second.report.sha256
        assert (
            first.report.stats.counters_dict()
            == second.report.stats.counters_dict()
        )

    def test_different_seed_changes_the_digest(self):
        assert self.run_once(seed=1).report.sha256 != self.run_once(
            seed=2
        ).report.sha256

    def test_quota_refusals_visible_in_aggregated_report(self):
        report = self.run_once().report
        assert report.quota_rejected > 0
        starved = {t.tenant_id: t for t in report.tenants}["starved"]
        assert starved.quota_rejected > 0
        assert starved.admitted <= 5
        assert f"quota refusals: {report.quota_rejected}" in report.render()
        assert report.as_dict()["tenants"]["starved"]["quota_rejected"] > 0

    def test_merged_stats_equal_tenant_sums(self):
        report = self.run_once().report
        assert report.stats.submitted == sum(
            t.submitted for t in report.tenants
        )
        assert report.stats.completed == sum(
            t.completed for t in report.tenants
        )

    def test_report_carries_fleet_identity(self):
        report = self.run_once().report
        assert report.n_shards == 2
        assert report.config.seed == 2024
        assert report.as_dict()["shard_hashes"] == report.shard_hashes
        assert report.n_records > 0


class TestFleetManagerLifecycle:
    def test_unknown_tenant_raises_on_routing(self):
        manager = FleetManager(fast_config(), default_registry(4))
        with pytest.raises(UnknownTenantError):
            manager.shard_for("nobody")

    def test_finish_is_single_shot(self):
        manager = FleetManager(fast_config(), default_registry(4))
        manager.finish()
        with pytest.raises(RuntimeError):
            manager.finish()
        with pytest.raises(RuntimeError):
            manager.submit_count(manager.registry.tenant_ids[0], 1)

    def test_shard_seeds_are_distinct_substreams(self):
        config = fast_config(n_shards=4)
        seeds = [config.shard_seed(i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [fast_config(n_shards=4).shard_seed(i) for i in range(4)]
