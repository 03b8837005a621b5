"""repro.fleet — sharded multi-tenant broker behind an HTTP/JSON front.

The service subsystem (:mod:`repro.service`) is one broker, one tenant,
one process. This package scales that out without giving up the repo's
determinism contract:

* **tenancy** (:mod:`~repro.fleet.tenants`) — SLA classes
  (gold/silver/bronze promise multipliers and penalty weights), per-run
  admission quotas, and stable hash routing of tenants onto shards;
* **sharding** (:mod:`~repro.fleet.sharding`) — N independent broker
  partitions, each a full environment+session+stats+econ stack seeded by
  :func:`repro.common.substream_seed`, sharing no mutable state;
* **executors** (:mod:`~repro.fleet.executor`) — who drives the shards:
  in this process (default) or one spawn-context worker process per
  shard behind a bounded command protocol with health beats, crash
  detection and graceful SIGTERM drain; the digest is byte-identical
  across executors (``repro check``'s executor-parity pass);
* **aggregation** (:mod:`~repro.fleet.aggregate`) — shard-index-ordered
  merging of traces, streaming SLA stats and cost ledgers, digested into
  one fleet SHA-256 that two runs of the same ``(seed, n_shards)``
  reproduce bit-for-bit (enforced by ``repro check``'s fleet pass);
  crashed shards fold in as deterministic ``LOST`` markers;
* **API** (:mod:`~repro.fleet.api`) — a stdlib HTTP/JSON front with
  schema-validated submit/quote/stats endpoints; every failure wears the
  one versioned envelope ``{"error": {"code", "message", "path"}}``;
* **client** (:mod:`~repro.fleet.client`) — the typed
  :class:`FleetClient`, the one public API over the HTTP front (and the
  only module in the tree that speaks raw ``http.client``);
* **load** (:mod:`~repro.fleet.loadgen`) — the aggregate heavy-traffic
  driver behind ``repro fleet loadgen`` and the ``fleet_loadgen`` /
  ``fleet_loadgen_procs`` bench scenarios;
* **telemetry** (:mod:`repro.obs`) — every shard carries a metrics
  registry and span recorder (``FleetConfig(telemetry=...)``), folded in
  shard-index order and served as Prometheus text on ``GET
  /v1/metrics``; strictly an observer, so no digest can move.

See ``docs/fleet.md`` for the tenancy model, routing, executor process
model and determinism contract in prose.

The names below are re-exported lazily (:mod:`repro._lazy`), so a
spawned shard worker that imports :mod:`~repro.fleet.executor` loads
neither the HTTP front, the client nor the aggregation.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".aggregate": ("FleetReport", "TenantReport", "aggregate_shards", "fleet_sha256"),
    ".api": ("FleetAPIServer", "serve_fleet", "serve_in_thread"),
    ".client": (
        "FleetAPIError", "FleetClient", "HealthInfo", "JobOutcome", "MetricsResult",
        "QuoteResult", "StatsResult", "SubmitResult", "TenantInfo",
    ),
    ".executor": (
        "EXECUTOR_NAMES", "InProcessExecutor", "MultiprocessExecutor", "ShardExecutor",
        "ShardLostError", "ShardStatsSnapshot", "WorkerHealth", "make_executor",
    ),
    ".loadgen": ("FleetLoadResult", "drive_shard_load", "run_fleet_load", "shard_streams"),
    ".schema": ("SchemaError", "validate"),
    ".sharding": (
        "BrokerShard", "FleetConfig", "FleetManager", "QuotaExceededError",
        "ShardResult", "TenantAccount",
    ),
    ".tenants": (
        "BRONZE", "GOLD", "SILVER", "SLA_CLASSES", "ScaledTicket", "SLAClass",
        "TenantSpec", "TenantRegistry", "UnknownTenantError", "default_registry",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "SLAClass", "GOLD", "SILVER", "BRONZE", "SLA_CLASSES",
    "ScaledTicket", "TenantSpec", "TenantRegistry",
    "UnknownTenantError", "default_registry",
    "SchemaError", "validate",
    "FleetConfig", "BrokerShard", "FleetManager", "TenantAccount",
    "ShardResult", "QuotaExceededError",
    "EXECUTOR_NAMES", "ShardExecutor", "InProcessExecutor",
    "MultiprocessExecutor", "make_executor", "ShardLostError",
    "ShardStatsSnapshot", "WorkerHealth",
    "FleetReport", "TenantReport", "aggregate_shards", "fleet_sha256",
    "FleetAPIServer", "serve_fleet", "serve_in_thread",
    "FleetClient", "FleetAPIError", "HealthInfo", "JobOutcome",
    "MetricsResult", "QuoteResult", "StatsResult", "SubmitResult",
    "TenantInfo",
    "FleetLoadResult", "drive_shard_load", "run_fleet_load",
    "shard_streams",
]
