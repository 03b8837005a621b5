"""Deterministic cross-shard aggregation: one fleet, one set of books.

A fleet run ends as N independent :class:`~repro.fleet.sharding.
ShardResult` objects. This module folds them — always in shard-index
order, which is what makes every derived artifact a pure function of
``(seed, n_shards, workload)``:

* **shard digests** — each shard hashed its own trace at drain
  (:func:`repro.sim.tracing.hash_trace`), so no job record crosses to
  the front; the fold keeps those digests and sums the record counts;
* **merged stats** — :meth:`StreamingSLAStats.merge` folds, exact for
  counts/sums, deterministic for quantile reservoir state;
* **merged ledger** — :meth:`CostLedger.merge` folds (all fields are
  additive);
* **fleet hash** — one SHA-256 over the per-shard trace hashes, the
  per-tenant ledger hashes (sorted by tenant id) and the merged counter
  state, floats canonicalised via ``hex()`` exactly like the trace hash.
  Two runs of the same fleet agree on this digest bit-for-bit; the
  ``repro check`` fleet pass enforces it — and the executor parity pass
  additionally proves the digest independent of *who* drove the shards
  (in-process vs one worker process per shard).

**Lost shards** (a worker crashed mid-run under the multiprocess
executor) fold in as a deterministic marker: the shard's digest line
becomes ``LOST(<cause>)`` — the cause string carries no pids, ports or
timestamps — and the surviving shards still fold in shard-index order.
Two runs that lose the same shard at the same point agree bit-for-bit
on the degraded digest too.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

from ..econ.penalties import CostLedger
from ..metrics.streaming import StreamingSLAStats
from ..obs import MetricsRegistry
from .sharding import FleetConfig, ShardResult, TenantAccount
from .tenants import TenantRegistry

__all__ = ["TenantReport", "FleetReport", "aggregate_shards", "fleet_sha256"]


def _canon(value: object) -> str:
    """Hash-stable rendering (floats by hex, dicts by sorted items)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{k}:{_canon(v)}" for k, v in sorted(value.items())
        ) + "}"
    return repr(value)


def fleet_sha256(
    shard_hashes: Sequence[str],
    tenant_ledger_hashes: Mapping[str, str],
    merged_counters: Mapping[str, object],
    merged_ledger_hash: str,
) -> str:
    """The fleet-level determinism digest (see module docstring)."""
    h = hashlib.sha256()
    for i, shard_hash in enumerate(shard_hashes):
        h.update(f"shard[{i}]={shard_hash}\n".encode())
    for tenant_id, ledger_hash in sorted(tenant_ledger_hashes.items()):
        h.update(f"tenant[{tenant_id}]={ledger_hash}\n".encode())
    for name, value in sorted(merged_counters.items()):
        h.update(f"stats[{name}]={_canon(value)}\n".encode())
    h.update(f"ledger={merged_ledger_hash}\n".encode())
    return h.hexdigest()


@dataclass(frozen=True)
class TenantReport:
    """One tenant's run, rolled up for the fleet report."""

    tenant_id: str
    sla_class: str
    shard: int
    quota_jobs: "int | None"
    submitted: int
    admitted: int
    rejected: int
    quota_rejected: int
    completed: int
    attainment: float
    penalty_usd: float
    ledger_hash: str

    def render(self) -> str:
        quota = "∞" if self.quota_jobs is None else str(self.quota_jobs)
        line = (
            f"{self.tenant_id:<12} {self.sla_class:<7} shard {self.shard}  "
            f"quota {quota:>4}  submitted {self.submitted:>6}  "
            f"admitted {self.admitted:>6}  rejected {self.rejected:>5}"
        )
        if self.quota_rejected:
            line += f" (quota {self.quota_rejected})"
        line += (
            f"  attainment {100 * self.attainment:5.1f}%"
            f"  penalties ${self.penalty_usd:,.2f}"
        )
        return line


@dataclass
class FleetReport:
    """The aggregated outcome of one fleet run."""

    config: FleetConfig
    shard_hashes: list[str]
    #: Job records across the surviving shards (chunk sub-records count).
    n_records: int
    stats: StreamingSLAStats
    ledger: CostLedger
    tenants: list[TenantReport]
    sha256: str
    #: Shards whose workers died before draining: index -> deterministic
    #: cause string (already folded into ``shard_hashes``/``sha256``).
    lost_shards: dict[int, str] = field(default_factory=dict)
    #: Fleet-wide telemetry: every shard's final registry folded in
    #: shard-index order. Strictly an observer — it is *not* an input to
    #: ``sha256`` (the parity check would catch it if it ever became
    #: one); ``obs_snapshot()`` stamps the digest alongside instead.
    obs: Optional[MetricsRegistry] = None
    #: Per-shard converger snapshots in shard-index order, when the
    #: fleet ran with ``FleetConfig(scaling=...)``. Outside ``sha256``
    #: like ``obs`` — but each snapshot carries its own deterministic
    #: ``audit_sha256``, which the policy tests double-run.
    policy: Optional[list[dict[str, object]]] = None

    @property
    def n_shards(self) -> int:
        return len(self.shard_hashes)

    @property
    def quota_rejected(self) -> int:
        """Fleet-wide count of quota refusals — distinct in the rollup."""
        return self.stats.rejections_by_reason.get("quota", 0)

    def as_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "seed": self.config.seed,
            "scheduler": self.config.scheduler,
            "shard_hashes": list(self.shard_hashes),
            "stats": self.stats.counters_dict(),
            "ledger": self.ledger.as_dict(),
            "ledger_sha256": self.ledger.ledger_hash(),
            "tenants": {
                t.tenant_id: {
                    "sla_class": t.sla_class,
                    "shard": t.shard,
                    "submitted": t.submitted,
                    "admitted": t.admitted,
                    "rejected": t.rejected,
                    "quota_rejected": t.quota_rejected,
                    "completed": t.completed,
                    "attainment": t.attainment,
                    "penalty_usd": t.penalty_usd,
                    "ledger_hash": t.ledger_hash,
                }
                for t in self.tenants
            },
            "fleet_sha256": self.sha256,
            "lost_shards": {str(i): c for i, c in sorted(self.lost_shards.items())},
            "rows": self.tenant_rows(),
            "obs": self.obs_snapshot(),
            "policy": self.policy,
        }

    def tenant_rows(self) -> list[dict[str, object]]:
        """Tenant table rows, one dict per tenant in tenant-id order.

        The single source for both the markdown table and the JSON
        report — ``--format json`` and ``--format markdown`` emit
        exactly these rows.
        """
        return [asdict(t) for t in self.tenants]

    def render_markdown(self) -> str:
        """The report as a markdown document with one tenant table."""
        lines = [
            f"# Fleet report — {self.n_shards} shards, "
            f"scheduler {self.config.scheduler}, seed {self.config.seed}",
            "",
            f"- fleet sha256: `{self.sha256}`",
            f"- completed: {self.stats.completed} / submitted {self.stats.submitted}",
            f"- penalties: ${self.ledger.penalty_usd:,.2f}",
        ]
        if self.obs is not None:
            lines.append(f"- obs registry sha256: `{self.obs.snapshot_sha256()}`")
        for index, cause in sorted(self.lost_shards.items()):
            lines.append(f"- **LOST** shard {index}: {cause}")
        lines += [
            "",
            "| tenant | class | shard | quota | submitted | admitted "
            "| rejected | quota-rej | completed | attainment | penalty |",
            "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|",
        ]
        for row in self.tenant_rows():
            quota = "∞" if row["quota_jobs"] is None else str(row["quota_jobs"])
            attainment = float(row["attainment"])  # type: ignore[arg-type]
            penalty_usd = float(row["penalty_usd"])  # type: ignore[arg-type]
            lines.append(
                f"| {row['tenant_id']} | {row['sla_class']} | {row['shard']} "
                f"| {quota} | {row['submitted']} | {row['admitted']} "
                f"| {row['rejected']} | {row['quota_rejected']} "
                f"| {row['completed']} | {100 * attainment:.1f}% "
                f"| ${penalty_usd:,.2f} |"
            )
        return "\n".join(lines)

    def obs_snapshot(self) -> Optional[dict[str, object]]:
        """The merged telemetry snapshot, stamped with the fleet digest.

        The stamp ties a scraped/exported snapshot back to the exact run
        that produced it without ever making telemetry a digest input.
        """
        if self.obs is None:
            return None
        return {
            "registry": self.obs.snapshot(),
            "registry_sha256": self.obs.snapshot_sha256(),
            "fleet_sha256": self.sha256,
        }

    def render(self) -> str:
        lines = [
            f"fleet: {self.n_shards} shards, scheduler {self.config.scheduler}, "
            f"seed {self.config.seed}",
            f"fleet sha256: {self.sha256}",
        ]
        for index, cause in sorted(self.lost_shards.items()):
            lines.append(f"LOST shard {index}: {cause}")
        lines.append(self.stats.render())
        lines.append(self.ledger.render())
        if self.quota_rejected:
            lines.append(
                f"quota refusals: {self.quota_rejected} jobs turned away at the door"
            )
        lines.append(f"tenants ({len(self.tenants)}):")
        lines.extend("  " + t.render() for t in self.tenants)
        return "\n".join(lines)


def _tenant_report(shard_index: int, account: TenantAccount) -> TenantReport:
    stats = account.stats
    return TenantReport(
        tenant_id=account.tenant.tenant_id,
        sla_class=account.tenant.sla_class.name,
        shard=shard_index,
        quota_jobs=account.quota_jobs,
        submitted=stats.submitted,
        admitted=stats.admitted,
        rejected=stats.rejected,
        quota_rejected=stats.rejections_by_reason.get("quota", 0),
        completed=stats.completed,
        attainment=stats.attainment,
        penalty_usd=account.ledger.penalty_usd,
        ledger_hash=account.ledger.ledger_hash(),
    )


def aggregate_shards(
    config: FleetConfig,
    registry: TenantRegistry,
    results: Sequence[ShardResult],
    lost: Optional[Mapping[int, str]] = None,
) -> FleetReport:
    """Fold shard results into one report, in shard-index order.

    ``lost`` maps crashed shards to their deterministic cause string;
    each occupies its index position in ``shard_hashes`` as
    ``LOST(<cause>)``, so the fleet digest certifies the loss exactly.
    """
    lost = dict(lost or {})
    results = sorted(results, key=lambda r: r.index)
    if not results:
        raise ValueError(
            "every shard was lost; nothing to aggregate "
            f"(causes: {sorted(lost.items())})"
        )
    by_index = {r.index: r for r in results}
    shard_hashes = []
    for index in range(config.n_shards):
        if index in by_index:
            shard_hashes.append(by_index[index].trace_sha256)
        elif index in lost:
            shard_hashes.append(f"LOST({lost[index]})")
        # Indexes never driven (impossible today) simply do not appear.

    stats = StreamingSLAStats(reservoir_seed=config.seed)
    ledger = CostLedger()
    obs: Optional[MetricsRegistry] = None
    policy: Optional[list[dict[str, object]]] = None
    tenants: list[TenantReport] = []
    for result in results:
        stats.merge(result.stats)
        ledger.merge(result.ledger)
        if result.obs is not None:
            if obs is None:
                obs = MetricsRegistry()
            # Same shard-index-order fold as stats/ledgers (results are
            # sorted above); merge is associative so the digest-free
            # telemetry totals are run invariants too.
            obs.merge_snapshot(result.obs)
        if result.policy is not None:
            if policy is None:
                policy = []
            # Shard-index order (results are sorted above): the list
            # position is the shard index among policy-bearing shards.
            policy.append(dict(result.policy, shard=result.index))
        # Registration order within a shard; sorted fleet-wide below.
        tenants.extend(
            _tenant_report(result.index, account)
            for account in result.accounts.values()
        )
    tenants.sort(key=lambda t: t.tenant_id)

    sha = fleet_sha256(
        shard_hashes,
        {t.tenant_id: t.ledger_hash for t in tenants},
        stats.counters_dict(),
        ledger.ledger_hash(),
    )
    return FleetReport(
        config=config,
        shard_hashes=shard_hashes,
        n_records=sum(r.n_records for r in results),
        stats=stats,
        ledger=ledger,
        tenants=tenants,
        sha256=sha,
        lost_shards=lost,
        obs=obs,
        policy=policy,
    )
