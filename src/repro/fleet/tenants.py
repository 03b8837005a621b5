"""Tenants, SLA classes, and stable tenant-to-shard routing.

The single-tenant broker sells every customer the same promise family.
A multi-tenant fleet cannot: per the related work's financial framing
(SLA-driven load scheduling in multi-tier clouds), penalty exposure
differs by customer class, so admission and bursting must know *whose*
job is arriving. This module supplies that vocabulary:

* :class:`SLAClass` — a named service tier: a **promise multiplier**
  (gold buys tighter promises than bronze for the same job), a **penalty
  weight** (breaking a gold promise costs proportionally more, wired
  into :class:`repro.econ.penalties.PenaltySchedule` via its ``scaled``
  knob), and default quota sizing.
* :class:`TenantSpec` — one customer: identity, class, per-run job quota
  and the derived admission policy / penalty schedule.
* :class:`TenantRegistry` — the fleet's directory: registration, lookup,
  and deterministic hash routing of tenants onto N broker shards
  (:func:`repro.common.stable_hash` — never the process-salted builtin
  ``hash``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from ..common import stable_hash
from ..econ.penalties import PenaltySchedule
from ..metrics.tickets import ProportionalTicket, TicketPolicy
from ..service.policy import SLAPolicy
from ..sim.tracing import JobRecord

__all__ = [
    "SLAClass",
    "GOLD",
    "SILVER",
    "BRONZE",
    "SLA_CLASSES",
    "ScaledTicket",
    "TenantSpec",
    "TenantRegistry",
    "UnknownTenantError",
    "default_registry",
]


@dataclass(frozen=True, kw_only=True)
class SLAClass:
    """One service tier's pricing of promises and violations.

    ``promise_multiplier`` scales the base ticket's promised response
    time: gold < 1 sells a *tighter* promise for the same job, bronze
    > 1 a looser one. ``penalty_weight`` scales the money axis of the
    base penalty schedule — the graduated fee a violation accrues —
    so breaking a premium promise costs more than breaking a budget one.
    """

    name: str
    promise_multiplier: float
    penalty_weight: float
    default_quota_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.promise_multiplier <= 0:
            raise ValueError("promise_multiplier must be positive")
        if self.penalty_weight < 0:
            raise ValueError("penalty_weight cannot be negative")
        if self.default_quota_jobs is not None and self.default_quota_jobs < 1:
            raise ValueError("default_quota_jobs must be positive when set")


#: The canonical three tiers. Gold pays for promises 25 % tighter than
#: the base ticket and is compensated 5x when they break; bronze runs
#: best-effort-ish: 50 % looser promises at the base penalty rate.
GOLD = SLAClass(name="gold", promise_multiplier=0.75, penalty_weight=5.0)
SILVER = SLAClass(name="silver", promise_multiplier=1.0, penalty_weight=2.0)
BRONZE = SLAClass(name="bronze", promise_multiplier=1.5, penalty_weight=1.0)

SLA_CLASSES: dict[str, SLAClass] = {c.name: c for c in (GOLD, SILVER, BRONZE)}


@dataclass(frozen=True)
class ScaledTicket:
    """A ticket family with its promise scaled by an SLA-class multiplier.

    Wraps any base :class:`TicketPolicy`; the promise sold (and later
    scored against — the broker stamps ``promise_s`` at admission) is the
    base promise times the multiplier.
    """

    base: TicketPolicy
    multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise ValueError("ticket multiplier must be positive")

    def promise_s(self, record: JobRecord) -> float:
        return float(self.base.promise_s(record)) * self.multiplier


@dataclass(frozen=True, kw_only=True)
class TenantSpec:
    """One registered customer of the fleet.

    ``quota_jobs`` caps the number of jobs this tenant may have
    *admitted* over one run; ``None`` inherits the class default
    (possibly unlimited). Quota-rejected jobs never touch a shard's
    simulated system, and surface under the distinct rejection reason
    ``"quota"`` in both the API response and the aggregated report.
    """

    tenant_id: str
    sla_class: SLAClass = SILVER
    quota_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.tenant_id or "/" in self.tenant_id:
            raise ValueError("tenant_id must be a non-empty string without '/'")
        if self.quota_jobs is not None and self.quota_jobs < 1:
            raise ValueError("quota_jobs must be positive when set")

    @property
    def effective_quota_jobs(self) -> Optional[int]:
        if self.quota_jobs is not None:
            return self.quota_jobs
        return self.sla_class.default_quota_jobs

    def policy(self, base: SLAPolicy) -> SLAPolicy:
        """This tenant's admission policy, derived from the fleet base.

        Thresholds (slack bands, backpressure) are shared fleet-wide;
        only the promise pricing is tenant-specific. A base policy that
        sells no promises (accept-all replay) stays promise-free for
        every class.
        """
        if base.ticket is None or self.sla_class.promise_multiplier == 1.0:
            return base
        return replace(
            base,
            ticket=ScaledTicket(base.ticket, self.sla_class.promise_multiplier),
        )

    def penalty_schedule(self, base: PenaltySchedule) -> PenaltySchedule:
        """This tenant's violation pricing: the base scaled by class weight."""
        if self.sla_class.penalty_weight == 1.0:
            return base
        return base.scaled(self.sla_class.penalty_weight)


class UnknownTenantError(KeyError):
    """Lookup of a tenant the registry has never seen."""


class TenantRegistry:
    """The fleet's tenant directory with deterministic shard routing.

    Iteration order is registration order (insertion-ordered dict), which
    every aggregation path sorts or fixes explicitly — nothing about a
    fleet run may depend on incidental ordering.
    """

    def __init__(self, tenants: "Optional[list[TenantSpec]]" = None) -> None:
        self._tenants: dict[str, TenantSpec] = {}
        for tenant in tenants or []:
            self.register(tenant)

    def register(self, tenant: TenantSpec) -> TenantSpec:
        if tenant.tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant.tenant_id!r} already registered")
        self._tenants[tenant.tenant_id] = tenant
        return tenant

    def get(self, tenant_id: str) -> TenantSpec:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise UnknownTenantError(tenant_id) from None

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self) -> Iterator[TenantSpec]:
        return iter(self._tenants.values())

    @property
    def tenant_ids(self) -> list[str]:
        return list(self._tenants)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def shard_index(tenant_id: str, n_shards: int) -> int:
        """Stable tenant -> shard routing (same on every process/run)."""
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        return stable_hash("tenant/" + tenant_id) % n_shards

    def tenants_for_shard(self, shard: int, n_shards: int) -> list[TenantSpec]:
        """The tenants routed to one shard, in registration order."""
        return [
            t
            for t in self._tenants.values()
            if self.shard_index(t.tenant_id, n_shards) == shard
        ]


def default_registry(n_tenants: int = 12) -> TenantRegistry:
    """A demo tenant population: gold/silver/bronze in a 1:1:2 rotation.

    Tenant ids are ``acme-001`` style; with a dozen or more tenants the
    stable hash spreads every shard of a small fleet at least one tenant
    with high probability (loadgen skips genuinely empty shards).
    """
    if n_tenants < 1:
        raise ValueError("need at least one tenant")
    cycle = (GOLD, SILVER, BRONZE, BRONZE)
    registry = TenantRegistry()
    for i in range(n_tenants):
        registry.register(
            TenantSpec(
                tenant_id=f"acme-{i + 1:03d}",
                sla_class=cycle[i % len(cycle)],
            )
        )
    return registry
