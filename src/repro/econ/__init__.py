"""repro.econ — the cloud-economics subsystem.

The paper's premise is economic (burst to a pay-as-you-go external cloud
only when the SLA payoff justifies it); this package supplies the money
the rest of the repo plans in time: price models and a seeded spot
market (:mod:`~repro.econ.pricing`), billing meters with configurable
billable quantums (:mod:`~repro.econ.billing`), SLA penalty schedules
and the per-run :class:`~repro.econ.penalties.CostLedger`
(:mod:`~repro.econ.penalties`), and cost-aware bursting/admission
(:mod:`~repro.econ.policy`).

:func:`attach_econ` is the single entry point: given a not-yet-driven
:class:`~repro.sim.environment.CloudBurstEnvironment` and an
:class:`EconConfig`, it attaches an :class:`EconRuntime` plugin whose
completion hook feeds the meters, optionally starts the spot
price/preemption process inside the simulator's event loop, and arranges
for the finalised ledger to land in ``trace.metadata["econ"]`` (with a stable ``ledger_sha256`` the
determinism gate checks). All econ randomness comes from its own seeded
generator: attaching econ in metering-only form (no finite spot bid)
leaves every job trace bit-for-bit identical to the un-metered run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..obs import ObsRuntime
from ..sim.environment import CloudBurstEnvironment, RunPlugin
from ..sim.tracing import JobRecord, RunTrace

if TYPE_CHECKING:  # runtime import would cycle through repro.metrics
    from ..metrics.streaming import StreamingSLAStats
from .billing import BillingMeter
from .penalties import CostLedger, PenaltySchedule, promise_for_estimate
from .policy import CostAwarePolicy, CostAwareScheduler, CostModel
from .pricing import (
    OnDemandPrice,
    SpotMarketConfig,
    SpotPreemptionInjector,
    SpotPriceProcess,
)

__all__ = [
    "OnDemandPrice",
    "SpotMarketConfig",
    "SpotPriceProcess",
    "SpotPreemptionInjector",
    "BillingMeter",
    "PenaltySchedule",
    "CostLedger",
    "promise_for_estimate",
    "CostModel",
    "CostAwareScheduler",
    "CostAwarePolicy",
    "EconConfig",
    "EconRuntime",
    "attach_econ",
]

#: Billable quantum of the paper-era EMR: every started instance-hour is
#: invoiced in full.
EMR_HOURLY_QUANTUM_S = 3600.0


@dataclass(frozen=True, kw_only=True)
class EconConfig:
    """Everything needed to cost one run.

    ``billing`` picks the meter model: ``"busy"`` invoices completed EC
    executions (usage billing), ``"pool"`` invoices rented machine time
    through the cluster lifecycle hooks (what the autoscaler pays).
    ``billable_quantum_s`` defaults to per-second billing; pass
    ``EMR_HOURLY_QUANTUM_S`` for the paper-era rounding. A ``spot``
    market prices compute off the seeded price path; with a finite bid
    it also *interrupts* the EC pool whenever the market moves above it.
    """

    on_demand: OnDemandPrice = OnDemandPrice()
    penalty: PenaltySchedule = field(default_factory=PenaltySchedule)
    billing: str = "busy"
    billable_quantum_s: float = 1.0
    spot: Optional[SpotMarketConfig] = None
    spot_seed: int = 90210

    def __post_init__(self) -> None:
        if self.billing not in ("busy", "pool"):
            raise ValueError("billing must be 'busy' or 'pool'")
        if self.billable_quantum_s <= 0:
            raise ValueError("billable_quantum_s must be positive")

    def cost_model(self) -> CostModel:
        """The planning-side view of this configuration."""
        return CostModel(on_demand=self.on_demand, penalty=self.penalty)


class EconRuntime(RunPlugin):
    """Live cost accounting attached to one environment.

    Owns the run's :class:`CostLedger`, the billing meter, and (when
    configured) the spot price process and preemption injector. Penalty
    and usage accrual ride :meth:`on_complete`, in completion order —
    deterministic, so the finalised ledger hash is a run invariant.
    """

    key = "econ"

    def __init__(
        self,
        env: CloudBurstEnvironment,
        config: EconConfig,
        stats: Optional["StreamingSLAStats"] = None,
    ) -> None:
        super().__init__(env)
        self.config = config
        self.stats = stats
        self.ledger = CostLedger()
        self.spot_process: Optional[SpotPriceProcess] = None
        self.injector: Optional[SpotPreemptionInjector] = None

        if config.spot is not None:
            self.spot_process = SpotPriceProcess(
                env.sim, config.spot, seed=config.spot_seed
            )
            if config.spot.preemptible:
                self.injector = SpotPreemptionInjector(
                    env.sim,
                    env.ec,
                    self.spot_process,
                    bid_usd_per_hour=config.spot.bid_usd_per_hour,
                    free_cache=env._free_cache,
                    on_preempt=self._on_preempt,
                )

        self.meter = BillingMeter(
            self.ledger,
            config.on_demand,
            quantum_s=config.billable_quantum_s,
            mode=config.billing,
            spot=self.spot_process,
        )
        if config.billing == "pool":
            self.meter.watch(env.ec)

    @property
    def cost_model(self) -> CostModel:
        return self.config.cost_model()

    def _on_preempt(self, item: object, elapsed_s: float) -> None:
        self.ledger.preemptions += 1
        self.ledger.lost_work_s += elapsed_s
        obs = self.env.plugin(ObsRuntime)
        if obs is not None:
            obs.on_preempt(elapsed_s, self.env.sim.now)

    def on_complete(self, record: JobRecord) -> None:
        self.ledger.completed += 1
        self.meter.on_record_complete(record)
        penalty_usd = self.config.penalty.penalty_usd(record)
        if penalty_usd > 0:
            self.ledger.violations += 1
            self.ledger.penalty_usd += penalty_usd
            if self.stats is not None:
                self.stats.on_penalty(penalty_usd)

    def finalize(self, trace: RunTrace) -> dict[str, object]:
        """Close the books; returns the ``trace.metadata["econ"]`` block."""
        self.meter.close_all(trace.end_time)
        transfer_usd = 0.0
        for record in trace.records:
            if record.bursted and record.completed:
                transfer_usd += self.config.on_demand.transfer_usd(
                    record.input_mb + record.output_mb
                )
        self.ledger.transfer_usd = transfer_usd
        out = self.ledger.as_dict()
        out["ledger_sha256"] = self.ledger.ledger_hash()
        out["billing"] = self.config.billing
        out["billable_quantum_s"] = self.config.billable_quantum_s
        out["spot"] = self.spot_process is not None
        out["spot_preemptible"] = self.injector is not None
        return out


def attach_econ(
    env: CloudBurstEnvironment,
    config: Optional[EconConfig] = None,
    stats: Optional["StreamingSLAStats"] = None,
) -> EconRuntime:
    """Arm cost accounting on a freshly built environment.

    Must run before the environment is driven (the spot process schedules
    its first epoch at attach time). ``stats`` may be a
    :class:`~repro.metrics.streaming.StreamingSLAStats` to receive
    per-penalty accruals for the broker's live counters.
    """
    return EconRuntime(env, config if config is not None else EconConfig(), stats)
