"""Shard manager: N independent broker partitions behind one front.

One :class:`BrokerShard` is a vertical slice of the whole single-tenant
stack — seeded :class:`~repro.sim.environment.CloudBurstEnvironment`,
scheduler, :class:`~repro.service.broker.BurstBroker`, streaming stats,
econ meters — serving the subset of tenants hash-routed to it. The
:class:`FleetManager` owns the shards and the routing, and is the only
object the HTTP front or the fleet load driver talk to.

Determinism contract (the whole point of the design):

* every shard's environment seed is ``substream_seed(run_seed, "shard",
  index)`` — a pure function of ``(seed, index)``, so shard *i* of an
  N-shard fleet simulates the identical event sequence on every run and
  every host;
* tenants route by :func:`repro.common.stable_hash`, never the
  process-salted builtin ``hash``;
* nothing a shard computes depends on any other shard — shards may be
  driven in any interleave (sequentially here; one process per shard on
  a real deployment) and still produce bit-identical traces;
* each shard hashes its own trace at drain; aggregation
  (:mod:`repro.fleet.aggregate`) folds those digests and the shard
  books in shard-index order, making the fleet hash a run invariant too.

Multi-tenancy inside one shard: each submission group passes its
tenant's derived :class:`~repro.service.policy.SLAPolicy` to
:meth:`BurstBroker.submit` (promise pricing per SLA class), quota is
checked before the broker ever sees the jobs, and the shard's own
completion hook (it is a :class:`~repro.sim.environment.RunPlugin`)
routes penalties — priced by the *tenant's* scaled schedule — into both
the shard ledger and the tenant's own :class:`~repro.econ.penalties.
CostLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..common import substream_seed
from ..econ.billing import BillingMeter
from ..econ.penalties import CostLedger, PenaltySchedule
from ..econ.pricing import OnDemandPrice
from ..experiments.runner import make_scheduler
from ..metrics.streaming import StreamingSLAStats
from ..obs import MetricsRegistry, ObsRuntime, attach_obs
from ..policy.runtime import PolicyConfig, PolicyRuntime, attach_policy
from ..service.broker import BurstBroker, SubmissionOutcome
from ..service.policy import AdmissionDecision, AdmissionResult, SLAPolicy
from ..service.quotes import SLAQuote, quote_job
from ..sim.environment import CloudBurstEnvironment, RunPlugin, SystemConfig
from ..sim.tracing import JobRecord, RunTrace, hash_trace
from ..workload.distributions import Bucket
from ..workload.document import Job
from ..workload.generator import WorkloadGenerator
from .tenants import TenantSpec, TenantRegistry, default_registry

if TYPE_CHECKING:
    from .aggregate import FleetReport
    from .executor import ShardExecutor, ShardStatsSnapshot

__all__ = [
    "FleetConfig",
    "QuotaExceededError",
    "TenantAccount",
    "ShardResult",
    "BrokerShard",
    "FleetManager",
]

#: Distinct rejection reason for quota exhaustion — surfaces alongside
#: the policy's "slack"/"in_system" reasons in every stats rollup.
QUOTA_REASON = "quota"


@dataclass(frozen=True, kw_only=True)
class FleetConfig:
    """Everything needed to stand up one fleet.

    ``executor`` names who drives the shards — ``"inprocess"`` (default;
    shards as plain objects in this process) or ``"multiprocess"`` (one
    spawn-context worker process per shard, see :mod:`repro.fleet.
    executor`). The executor choice cannot change any digest: that is
    the executor-parity contract ``repro check`` enforces.

    ``scaling`` arms the same declarative converger
    (:class:`repro.policy.PolicyConfig`) on *every* shard's EC pool —
    shard environments are substream-seeded, so a policy-driven fleet
    stays deterministic and its per-shard audit logs merge in
    shard-index order into ``FleetReport.policy``, outside the digest.
    """

    n_shards: int = 4
    seed: int = 2024
    scheduler: str = "Op"
    system: SystemConfig = field(default_factory=SystemConfig)
    policy: SLAPolicy = field(default_factory=SLAPolicy)
    penalty: PenaltySchedule = field(default_factory=PenaltySchedule)
    on_demand: OnDemandPrice = field(default_factory=OnDemandPrice)
    bucket: Bucket = Bucket.UNIFORM
    pretrain: bool = True
    pretrain_jobs: int = 400
    executor: str = "inprocess"
    command_timeout_s: float = 30.0
    drain_timeout_s: float = 600.0
    telemetry: bool = True
    scaling: Optional[PolicyConfig] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        if self.pretrain_jobs < 1:
            raise ValueError("pretrain_jobs must be positive")
        if self.command_timeout_s <= 0 or self.drain_timeout_s <= 0:
            raise ValueError("executor timeouts must be positive")

    def shard_seed(self, index: int) -> int:
        """The environment master seed of shard ``index``."""
        return substream_seed(self.seed, "shard", index)


class QuotaExceededError(RuntimeError):
    """A tenant's per-run admission quota is already exhausted."""

    def __init__(self, tenant_id: str, quota_jobs: int) -> None:
        self.tenant_id = tenant_id
        self.quota_jobs = quota_jobs
        super().__init__(
            f"tenant {tenant_id!r} exhausted its quota of {quota_jobs} admitted jobs"
        )

    def __reduce__(self) -> tuple[type, tuple[str, int]]:
        # Rebuild from the fields, so a worker's refusal crosses the
        # process boundary as itself (and the front still answers 429).
        return type(self), (self.tenant_id, self.quota_jobs)


@dataclass
class TenantAccount:
    """One tenant's live books on its home shard.

    ``stats`` mirrors every admission/completion event the shard sees for
    this tenant; ``ledger`` carries the penalty-side money (violations,
    penalty USD, transfer attribution) priced by the tenant's own scaled
    schedule. Compute billing is metered at shard level — machines are
    shared, so instance-time is not attributable to one tenant.
    """

    tenant: TenantSpec
    policy: SLAPolicy
    penalty: PenaltySchedule
    stats: StreamingSLAStats
    ledger: CostLedger = field(default_factory=CostLedger)
    admitted_jobs: int = 0

    @property
    def quota_jobs(self) -> Optional[int]:
        return self.tenant.effective_quota_jobs

    @property
    def quota_remaining(self) -> Optional[int]:
        if self.quota_jobs is None:
            return None
        return max(0, self.quota_jobs - self.admitted_jobs)


@dataclass
class ShardResult:
    """One shard's finished run, as handed to the aggregator: the
    digest of its trace and its books, never the job records."""

    index: int
    seed: int
    #: :func:`~repro.sim.tracing.hash_trace` of the shard's finished trace.
    trace_sha256: str
    #: Job records in that trace (chunk sub-records count).
    n_records: int
    stats: StreamingSLAStats
    ledger: CostLedger
    accounts: dict[str, TenantAccount]
    #: Final telemetry registry snapshot (canonical dict form, ready to
    #: merge in shard-index order); ``None`` when telemetry is disabled.
    #: Strictly outside every aggregation digest.
    obs: Optional[dict[str, object]] = None
    #: Final converger snapshot (ticks, applied steps, audit sha) when
    #: the fleet runs with ``FleetConfig(scaling=...)``; ``None``
    #: otherwise. Outside every aggregation digest, like ``obs``.
    policy: Optional[dict[str, object]] = None


class BrokerShard(RunPlugin):
    """One broker partition: environment + session + per-tenant books.

    The shard is itself a plugin on its environment: completions land in
    its tenant books, and ``finalize`` closes them with the transfer
    charges and stamps the ``trace.metadata["fleet_shard"]`` block.
    """

    key = "fleet_shard"

    def __init__(
        self,
        index: int,
        config: FleetConfig,
        tenants: Sequence[TenantSpec],
    ) -> None:
        self.index = index
        self.config = config
        self.seed = config.shard_seed(index)
        super().__init__(CloudBurstEnvironment(config.system.with_seed(self.seed)))
        #: Telemetry rides along unless the fleet disables it; strictly
        #: an observer, so this cannot move any digest (the ``check
        #: obs`` parity pass pins that).
        self.obs: Optional[ObsRuntime] = (
            attach_obs(self.env) if config.telemetry else None
        )
        #: Declarative EC scaling, when the fleet runs with a policy
        #: config. Attached after obs so converger decisions land on the
        #: shard's telemetry gauges.
        self.policy: Optional[PolicyRuntime] = (
            attach_policy(self.env, config.scaling)
            if config.scaling is not None
            else None
        )
        if config.pretrain:
            trainer = WorkloadGenerator(
                bucket=config.bucket,
                seed=substream_seed(config.seed, "shard", index, "pretrain"),
            )
            self.env.pretrain_qrsm(
                *trainer.sample_training_set(config.pretrain_jobs)
            )
        scheduler = make_scheduler(config.scheduler, self.env)
        self.stats = StreamingSLAStats(
            reservoir_seed=substream_seed(config.seed, "shard", index, "stats")
        )
        self.broker = BurstBroker(
            self.env, scheduler, policy=config.policy, stats=self.stats
        )
        self.ledger = CostLedger()
        self.meter = BillingMeter(self.ledger, config.on_demand)
        self.accounts: dict[str, TenantAccount] = {
            t.tenant_id: TenantAccount(
                tenant=t,
                policy=t.policy(config.policy),
                penalty=t.penalty_schedule(config.penalty),
                stats=StreamingSLAStats(
                    reservoir_seed=substream_seed(
                        config.seed, "tenant", t.tenant_id
                    )
                ),
            )
            for t in tenants
        }
        self._job_tenant: dict[int, str] = {}
        self._synth = WorkloadGenerator(
            bucket=config.bucket,
            seed=substream_seed(config.seed, "shard", index, "api-synth"),
        )
        self._next_job_id = 0
        self._next_group_id = 0

    # ------------------------------------------------------------------
    @property
    def tenant_ids(self) -> list[str]:
        return list(self.accounts)

    def obs_snapshot(self) -> Optional[dict[str, object]]:
        """Point-in-time canonical registry snapshot (``None`` if off)."""
        if self.obs is None:
            return None
        return self.obs.registry.snapshot()

    def policy_snapshot(self) -> Optional[dict[str, object]]:
        """Point-in-time converger snapshot (``None`` when no policy)."""
        if self.policy is None:
            return None
        return self.policy.snapshot()

    # ------------------------------------------------------------------
    # Job synthesis (every fleet driver submits counts)
    # ------------------------------------------------------------------
    def synthesize_jobs(
        self, n: int, arrival_time: Optional[float] = None
    ) -> tuple[float, list[Job]]:
        """Draw ``n`` jobs from this shard's seeded API substream.

        Fleet drivers submit job *counts*, not job bodies — the document
        population is the paper's generator, so the fleet is
        deterministic given its seed. Returns the workload-relative
        arrival instant (defaulting to the shard's current virtual time)
        and the jobs stamped with it.
        """
        if arrival_time is None:
            arrival_time = max(0.0, self.env.sim.now - self.env.origin)
        group_id = self._next_group_id
        self._next_group_id += 1
        jobs = [
            self._synth.sample_job(
                self._next_job_id + k + 1, batch_id=group_id, arrival_time=arrival_time
            )
            for k in range(n)
        ]
        self._next_job_id += n
        return arrival_time, jobs

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def quote(self, tenant_id: str, job: Job) -> SLAQuote:
        """Price one job under a tenant's SLA class without admitting it."""
        account = self.accounts[tenant_id]
        state = self.env.build_state()
        return quote_job(job, state, self.env.estimator, account.policy.ticket)

    def submit_count(
        self,
        tenant_id: str,
        n_jobs: int,
        arrival_time: Optional[float] = None,
    ) -> tuple[float, list[SubmissionOutcome]]:
        """Synthesise ``n_jobs`` and :meth:`submit` them (every fleet driver).

        An exhausted tenant raises :class:`QuotaExceededError` *before*
        synthesis, so a refusal leaves the API substream untouched."""
        account = self.accounts[tenant_id]
        if account.quota_remaining == 0:
            raise QuotaExceededError(tenant_id, account.quota_jobs or 0)
        arrival_time, jobs = self.synthesize_jobs(n_jobs, arrival_time)
        return arrival_time, self.submit(tenant_id, jobs, arrival_time=arrival_time)

    def submit(
        self,
        tenant_id: str,
        jobs: Sequence[Job],
        arrival_time: Optional[float] = None,
    ) -> list[SubmissionOutcome]:
        """Quote, admit and dispatch one tenant's arrival group.

        Quota runs *before* the broker: if the tenant's remaining
        allowance is smaller than the group, the tail of the group is
        refused with the distinct reason ``"quota"`` and never touches
        the simulated system. The refusal is conservative at group
        granularity — allowance counts jobs the policy might still
        reject — which keeps the check a pure function of the account
        state at arrival. Only a partly allowed group's tail is refused
        here: :meth:`submit_count` raises for a tenant with none left.
        """
        account = self.accounts[tenant_id]
        jobs = list(jobs)
        remaining = account.quota_remaining
        if remaining is None:
            allowed, overflow = jobs, []
        else:
            allowed, overflow = jobs[:remaining], jobs[remaining:]

        outcomes: list[SubmissionOutcome] = []
        if allowed:
            for job in allowed:
                self._job_tenant[job.job_id] = tenant_id
            broker_outcomes = self.broker.submit(
                allowed, arrival_time=arrival_time, policy=account.policy
            )
            for outcome in broker_outcomes:
                account.stats.on_admission(
                    outcome.result.decision, outcome.result.reason
                )
                if outcome.admitted:
                    account.admitted_jobs += 1
                else:
                    del self._job_tenant[outcome.job.job_id]
            outcomes.extend(broker_outcomes)

        for job in overflow:
            result = AdmissionResult(AdmissionDecision.REJECT, QUOTA_REASON)
            # Quota refusals must flow through the same counters the
            # broker feeds, or check_broker_counters would see submitted
            # != accepted + degraded + rejected at finish.
            self.stats.on_admission(result.decision, result.reason)
            account.stats.on_admission(result.decision, result.reason)
            if self.obs is not None:
                self.obs.on_admission(
                    result.decision, result.reason, self.env.sim.now
                )
            quote = self.quote(tenant_id, job)
            outcomes.append(SubmissionOutcome(job=job, quote=quote, result=result))
        return outcomes

    # ------------------------------------------------------------------
    # Completion side
    # ------------------------------------------------------------------
    def on_complete(self, record: JobRecord) -> None:
        """Attribute one completed record to its tenant's books.

        Chunking schedulers split admitted jobs into sub-records that
        keep the parent ``job_id``, so the job->tenant map covers every
        record the environment completes.
        """
        self.ledger.completed += 1
        self.meter.on_record_complete(record)
        tenant_id = self._job_tenant.get(record.job_id)
        if tenant_id is None:
            return
        account = self.accounts[tenant_id]
        account.stats.on_complete(record)
        account.ledger.completed += 1
        penalty_usd = account.penalty.penalty_usd(record)
        if penalty_usd > 0:
            account.ledger.violations += 1
            account.ledger.penalty_usd += penalty_usd
            account.stats.on_penalty(penalty_usd)
            self.ledger.violations += 1
            self.ledger.penalty_usd += penalty_usd
            self.stats.on_penalty(penalty_usd)

    def finalize(self, trace: RunTrace) -> dict[str, object]:
        """Charge transfers to the books; the ``"fleet_shard"`` block."""
        for record in trace.records:
            if record.bursted and record.completed:
                usd = self.config.on_demand.transfer_usd(
                    record.input_mb + record.output_mb
                )
                self.ledger.transfer_usd += usd
                tenant_id = self._job_tenant.get(record.job_id)
                if tenant_id is not None:
                    self.accounts[tenant_id].ledger.transfer_usd += usd
        return {"index": self.index, "seed": self.seed, "tenants": self.tenant_ids}

    # ------------------------------------------------------------------
    def finish(self) -> ShardResult:
        """Drain the shard, close its books and digest its trace."""
        trace = self.broker.finish()
        return ShardResult(
            index=self.index,
            seed=self.seed,
            trace_sha256=hash_trace(trace),
            n_records=len(trace.records),
            stats=self.stats,
            ledger=self.ledger,
            accounts=self.accounts,
            obs=self.obs_snapshot(),
            policy=self.policy_snapshot(),
        )


class FleetManager:
    """The multi-tenant front: routing, validation, lifecycle.

    The manager owns the routing table and one :class:`~repro.fleet.
    executor.ShardExecutor`; every shard operation goes through the
    executor's command protocol, so the manager behaves identically
    whether shards live in this process (``"inprocess"``, the default)
    or one worker process each (``"multiprocess"``). Callers that poke
    shard objects directly — tests mostly — use :attr:`shards` /
    :meth:`shard_for`, which exist only on the in-process executor.

    Shards are constructed eagerly (environment instantiation is cheap —
    pinned by ``tests/test_environment_isolation.py``; worker boot is
    confirmed by a handshake) so routing never observes a half-built
    fleet.
    """

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        registry: Optional[TenantRegistry] = None,
    ) -> None:
        from .executor import make_executor

        self.config = config if config is not None else FleetConfig()
        self.registry = registry if registry is not None else default_registry()
        self.executor_name = self.config.executor
        self.executor: "ShardExecutor" = make_executor(
            self.executor_name, self.config, self.registry
        )
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    @property
    def shards(self) -> list[BrokerShard]:
        """Direct shard access — in-process executor only."""
        shards = getattr(self.executor, "shards", None)
        if shards is None:
            raise RuntimeError(
                "direct shard access requires the in-process executor; "
                f"this fleet runs {self.executor_name!r}"
            )
        return list(shards)

    def shard_index_for(self, tenant_id: str) -> int:
        """Route a tenant to its home shard index (raises UnknownTenantError)."""
        tenant = self.registry.get(tenant_id)
        return self.registry.shard_index(tenant.tenant_id, self.n_shards)

    def shard_for(self, tenant_id: str) -> BrokerShard:
        """Route a tenant to its home shard object (in-process only)."""
        return self.shards[self.shard_index_for(tenant_id)]

    def account(self, tenant_id: str) -> TenantAccount:
        """One tenant's books — live in-process, a point-in-time copy
        when the shard runs in a worker process."""
        index = self.shard_index_for(tenant_id)
        account = self.executor.call(index, "accounts")[tenant_id]
        assert isinstance(account, TenantAccount)
        return account

    def accounts(self) -> dict[str, TenantAccount]:
        """Every tenant's books, fleet-wide (one op per shard)."""
        merged: dict[str, TenantAccount] = {}
        for index in range(self.n_shards):
            merged.update(self.executor.call(index, "accounts"))
        return merged

    def stats_snapshots(self) -> "list[ShardStatsSnapshot]":
        """Per-shard counter snapshots; lost shards marked, not raised."""
        from .executor import ShardLostError, ShardStatsSnapshot

        out: list[ShardStatsSnapshot] = []
        for index in range(self.n_shards):
            try:
                out.append(self.executor.call(index, "stats"))
            except ShardLostError as exc:
                out.append(
                    ShardStatsSnapshot(
                        index=index, tenant_ids=(), counters={}, lost=exc.cause
                    )
                )
        return out

    def health(self) -> "list[Any]":
        """Per-worker liveness (see :class:`~repro.fleet.executor.WorkerHealth`)."""
        return list(self.executor.health())

    def metrics_registry(self) -> MetricsRegistry:
        """The live fleet-wide telemetry view behind ``GET /v1/metrics``.

        Folds each shard's current registry snapshot — piggybacked on
        the same ``stats`` command the counters ride, no extra round
        trip — in shard-index order, then merges the executor's own
        control-plane registry (retries, lost shards). Always includes
        the fleet-level gauges, so the exposition is well-formed even
        with per-shard telemetry disabled.
        """
        merged = MetricsRegistry()
        merged.gauge(
            "fleet_shards", "Shards configured in this fleet."
        ).set(float(self.n_shards))
        up = 0
        for snapshot in self.stats_snapshots():
            if snapshot.lost is None:
                up += 1
            if snapshot.obs is not None:
                merged.merge_snapshot(snapshot.obs)
        merged.gauge(
            "fleet_shards_up", "Shards that answered the last stats sweep."
        ).set(float(up))
        merged.merge(self.executor.telemetry)
        return merged

    # ------------------------------------------------------------------
    def submit_count(
        self,
        tenant_id: str,
        n_jobs: int,
        arrival_time_s: Optional[float] = None,
    ) -> tuple[float, list[SubmissionOutcome]]:
        """Submit ``n_jobs`` synthesised on the home shard in one
        ``submit`` command (see :meth:`BrokerShard.submit_count`)."""
        if self._finished:
            raise RuntimeError("fleet already finished")
        index = self.shard_index_for(tenant_id)
        arrival_time, outcomes = self.executor.call(
            index, "submit", tenant_id, n_jobs, arrival_time_s
        )
        return float(arrival_time), list(outcomes)

    def quote(self, tenant_id: str) -> SLAQuote:
        """Price one job synthesised on the tenant's home shard."""
        index = self.shard_index_for(tenant_id)
        quote = self.executor.call(index, "quote", tenant_id)
        assert isinstance(quote, SLAQuote)
        return quote

    # ------------------------------------------------------------------
    def finish(self) -> "FleetReport":
        """Drain every shard in index order and aggregate the fleet.

        Shards whose workers died are folded in as deterministic
        ``LOST`` markers — the digest still certifies exactly what
        happened, surviving shards still fold in shard-index order.
        """
        from .aggregate import aggregate_shards

        if self._finished:
            raise RuntimeError("fleet already finished")
        self._finished = True
        try:
            results, lost = self.executor.drain()
        finally:
            self.executor.close()
        return aggregate_shards(self.config, self.registry, results, lost=lost)
