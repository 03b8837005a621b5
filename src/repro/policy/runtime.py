"""Attach a policy-driven converger to one environment.

Mirrors the :func:`repro.econ.attach_econ` / :func:`repro.obs.attach_obs`
idiom — one entry point (:func:`attach_policy`), one
:class:`~repro.sim.environment.RunPlugin` on the environment, and a
finalisation block stamped into ``trace.metadata["policy"]`` outside
every digest. Unlike econ and obs, the policy plane is *not* a pure
observer: the converger scales the EC pool by design. The determinism
contract is therefore two-sided (the ``repro check`` policy pass
enforces both):

* **not attached** — runs are bit-identical to the seed; nothing here
  executes;
* **attached but idle** — a converger whose policies never trigger adds
  events to the loop but changes no machine, so the job trace hashes
  exactly like a no-policy run;
* **attached and active** — double runs reproduce the same trace hash
  *and* the same audit-log sha256.

:class:`PolicyConfig` is a frozen value object so it pickles cleanly
into :class:`repro.fleet.FleetConfig` for multiprocess shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..econ import EconRuntime
from ..econ.penalties import PenaltySchedule
from ..obs import ObsRuntime
from ..sim.environment import CloudBurstEnvironment, RunPlugin
from ..sim.tracing import JobRecord, RunTrace
from .converge import ConvergenceDecision, Converger, ConvergerConfig
from .model import PolicySet, ScalingPolicy

__all__ = ["PolicyConfig", "PolicyRuntime", "attach_policy"]


@dataclass(frozen=True, kw_only=True)
class PolicyConfig:
    """Everything needed to drive one environment's EC pool by policy."""

    policies: tuple[ScalingPolicy, ...] = ()
    converger: ConvergerConfig = field(default_factory=ConvergerConfig)
    enabled: bool = True

    def __post_init__(self) -> None:
        # Surface duplicate-name errors at config time, not attach time.
        PolicySet(self.policies)

    def as_dict(self) -> dict[str, object]:
        return {
            "enabled": self.enabled,
            "policies": [p.as_dict() for p in self.policies],
            "converger": {
                "interval_s": self.converger.interval_s,
                "launch_delay_s": self.converger.launch_delay_s,
                "basis": self.converger.basis,
                "max_launch_per_tick": self.converger.max_launch_per_tick,
                "max_drain_per_tick": self.converger.max_drain_per_tick,
                "max_step_retries": self.converger.max_step_retries,
                "delete_offline": self.converger.delete_offline,
            },
        }


class PolicyRuntime(RunPlugin):
    """One environment's policy plane: converger + SLA/spend taps.

    SLA attainment is counted by this runtime's own :meth:`on_complete`
    (using the attached econ penalty schedule when there is one, the
    default schedule otherwise), so ``"sla"``-triggered policies work
    with or without cost accounting. Spend comes straight from the econ
    ledger and is ``None`` without one — ``"cost"`` triggers then stay
    quiet by contract.
    """

    key = "policy"

    def __init__(self, env: CloudBurstEnvironment, config: PolicyConfig) -> None:
        super().__init__(env)
        self.config = config
        econ = env.plugin(EconRuntime)
        self._penalty = econ.config.penalty if econ is not None else PenaltySchedule()
        self._completed = 0
        self._violations = 0
        self.converger = Converger(
            env.sim,
            env.ec,
            PolicySet(config.policies),
            config.converger,
            attainment_ratio=self.attainment_ratio,
            spend_usd=self.spend_usd,
            on_decision=self._on_decision,
        )
        if config.enabled and config.policies:
            self.converger.start()

    # ------------------------------------------------------------------
    # Snapshot providers handed to the converger
    # ------------------------------------------------------------------
    def attainment_ratio(self) -> Optional[float]:
        """Fraction of completed jobs that met their promise; ``None``
        before the first completion."""
        if self._completed == 0:
            return None
        return (self._completed - self._violations) / self._completed

    def spend_usd(self) -> Optional[float]:
        econ = self.env.plugin(EconRuntime)
        return econ.ledger.total_usd if econ is not None else None

    # ------------------------------------------------------------------
    def on_complete(self, record: JobRecord) -> None:
        self._completed += 1
        if self._penalty.penalty_usd(record) > 0:
            self._violations += 1

    def _on_decision(self, decision: ConvergenceDecision) -> None:
        obs = self.env.plugin(ObsRuntime)
        if obs is None:
            return
        steps: dict[str, int] = {}
        for step in decision.steps:
            if step.ok:
                steps[step.kind] = steps.get(step.kind, 0) + 1
        obs.on_converge(
            desired=decision.desired,
            observed=decision.basis,
            steps=steps,
            lag_s=decision.lag_s,
            at_s=decision.time_s,
        )

    # ------------------------------------------------------------------
    def fire_webhook(self, name: str) -> None:
        """Arm a programmatic trigger on the underlying converger."""
        self.converger.fire_webhook(name)

    def snapshot(self) -> dict[str, object]:
        """Shard-sized view for :class:`repro.fleet` result merging."""
        summary = self.converger.summary()
        summary["enabled"] = self.config.enabled
        summary["completed"] = self._completed
        summary["violations"] = self._violations
        return summary

    def finalize(self, trace: RunTrace) -> dict[str, object]:
        """The ``trace.metadata["policy"]`` block (outside all digests)."""
        return {
            "enabled": self.config.enabled,
            "summary": self.snapshot(),
            "decisions": [d.as_dict() for d in self.converger.decisions],
            "audit_sha256": self.converger.audit_sha256(),
        }


def attach_policy(
    env: CloudBurstEnvironment, config: Optional[PolicyConfig] = None
) -> PolicyRuntime:
    """Arm the policy plane on a freshly built environment.

    Must run before the environment is driven (the converger schedules
    its first tick at attach time) and *after* ``attach_econ`` when cost
    accounting is wanted — cost triggers and the penalty schedule bind
    to whatever is attached at this moment.
    """
    return PolicyRuntime(env, config if config is not None else PolicyConfig())
