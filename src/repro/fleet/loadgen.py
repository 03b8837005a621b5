"""Aggregate load driver: open-loop heavy traffic across every shard.

Each shard gets its own seeded arrival stream (substream-derived, so the
fleet's total workload is a pure function of ``(seed, n_shards)``) and
its own tenant rotation drawn from the tenants routed to it. *Who*
drives the shards is the executor's business (:mod:`repro.fleet.
executor`): the in-process executor drives them to completion one at a
time; the multiprocess executor fans the same per-shard streams out to
one worker process each and they run concurrently. The shards share
nothing, so the executor cannot change any result — only the wall
clock — and the ``repro check`` executor-parity pass holds both to one
``fleet_sha256``. The HTTP driver (:func:`run_client_load`) replays the
same per-shard schedules (:func:`shard_schedule`) against a served
fleet. Both submit job *counts* through :meth:`BrokerShard.submit_count`,
so the shard synthesises bodies one way and both drain to one digest.

Throughput is reported two ways, and the distinction matters on a
one-core container:

* ``aggregate_jobs_per_s`` — total jobs over the *slowest single shard's*
  submission wall time: the sustained rate an N-process deployment
  (one core per shard, which is the deployment the sharding exists for)
  would deliver, since shards progress independently.
* ``serial_jobs_per_s`` — total jobs over the *sum* of shard submission
  walls: what one sequential process does, the honest lower bound.

Both figures land in the bench report (``BENCH_core.json``); the fleet
acceptance target (≥100k jobs/s aggregate across ≥4 shards) is scored
on the aggregate figure, and the ``fleet_loadgen_procs`` scenario
additionally scores the multiprocess executor against the in-process
serial figure.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from ..common import split_evenly, substream_seed
from ..service.loadgen import (
    LoadGenConfig,
    SubmissionTiming,
    arrival_schedule,
    drive_arrivals,
)
from .sharding import BrokerShard, FleetConfig, FleetManager, QuotaExceededError
from .tenants import TenantRegistry, default_registry

if TYPE_CHECKING:
    from .aggregate import FleetReport

__all__ = [
    "FleetLoadResult",
    "ClientLoadResult",
    "shard_streams",
    "shard_schedule",
    "drive_shard_load",
    "run_fleet_load",
    "run_client_load",
]


@dataclass
class FleetLoadResult:
    """Operator-facing summary of one fleet load run."""

    config: LoadGenConfig
    fleet: FleetConfig
    report: FleetReport
    shard_timings: list[SubmissionTiming]
    drain_wall_s: float = 0.0
    #: Parent-side wall clock around the whole submission phase — under
    #: the multiprocess executor this is the *concurrent* figure (all
    #: workers driving at once), honest end-to-end including IPC.
    submit_phase_wall_s: float = 0.0
    executor_name: str = "inprocess"

    @property
    def n_submitted(self) -> int:
        return sum(t.n_submitted for t in self.shard_timings)

    @property
    def quota_refusals(self) -> int:
        """Groups refused whole because their tenant's quota was spent."""
        return sum(t.n_refused for t in self.shard_timings)

    @property
    def lost_shards(self) -> dict[int, str]:
        return dict(self.report.lost_shards)

    @property
    def max_shard_wall_s(self) -> float:
        return max((t.submit_wall_s for t in self.shard_timings), default=0.0)

    @property
    def total_shard_wall_s(self) -> float:
        return sum(t.submit_wall_s for t in self.shard_timings)

    @property
    def aggregate_jobs_per_s(self) -> float:
        """Scale-out capacity: total jobs over the slowest shard's wall."""
        if self.max_shard_wall_s <= 0:
            return 0.0
        return self.n_submitted / self.max_shard_wall_s

    @property
    def serial_jobs_per_s(self) -> float:
        """Single-process figure: total jobs over summed shard walls."""
        if self.total_shard_wall_s <= 0:
            return 0.0
        return self.n_submitted / self.total_shard_wall_s

    def render(self) -> str:
        c = self.config
        lines = [
            f"fleet load: {self.n_submitted} jobs over "
            f"{len(self.shard_timings)} shards via {c.process} arrivals "
            f"@ {c.rate_per_s:g}/s per shard ({self.executor_name} executor)",
            f"throughput: {self.aggregate_jobs_per_s:,.0f} jobs/s aggregate "
            f"(slowest shard {self.max_shard_wall_s:.2f}s), "
            f"{self.serial_jobs_per_s:,.0f} jobs/s serial "
            f"({self.total_shard_wall_s:.2f}s submitting, "
            f"{self.drain_wall_s:.2f}s draining)",
        ]
        if self.quota_refusals:
            lines.append(f"refused groups: {self.quota_refusals} (quota spent)")
        lines.append(self.report.render())
        return "\n".join(lines)


def shard_streams(
    load: LoadGenConfig, tenants_by_shard: Mapping[int, Sequence[str]]
) -> dict[int, LoadGenConfig]:
    """Split one fleet-wide stream into per-shard streams: the one split.

    ``load.n_jobs`` is the fleet total; each populated shard (one with
    tenants routed to it) receives an equal share — the last absorbs
    the remainder, the :func:`repro.common.split_evenly` convention —
    under its own substream-derived seed, so the fleet's workload is a
    pure function of ``(seed, populated shards)``. Shards whose share is
    zero are left out.
    """
    populated = sorted(i for i, ids in tenants_by_shard.items() if ids)
    if not populated:
        raise ValueError("no shard has any tenants routed to it")
    shares = split_evenly(load.n_jobs, len(populated))
    return {
        index: replace(
            load,
            n_jobs=n_jobs,
            seed=substream_seed(load.seed, "shard", index, "arrivals"),
        )
        for index, n_jobs in zip(populated, shares)
        if n_jobs
    }


def shard_schedule(
    stream: LoadGenConfig,
    shard_index: int,
    tenant_ids: Sequence[str],
    rotation_seed: int,
) -> Iterator[tuple[float, str, int]]:
    """One shard's ``(arrival_time, tenant_id, n_jobs)`` groups, the
    schedule both fleet drivers submit: ``stream`` (its share from
    :func:`shard_streams`) with a seeded draw over the shard's tenants."""
    rng = random.Random(
        substream_seed(rotation_seed, "shard", shard_index, "tenant-rotation")
    )
    for arrival_time, n_jobs in arrival_schedule(stream):
        yield arrival_time, tenant_ids[rng.randrange(len(tenant_ids))], n_jobs


def drive_shard_load(
    shard: BrokerShard, stream: LoadGenConfig, rotation_seed: int
) -> SubmissionTiming:
    """Drive one shard's schedule to completion, wherever it runs.

    This is the body of the executor's ``load`` op, in this process or
    in the shard's worker; the schedule is regenerated from seeds either
    way. Each group goes through :meth:`BrokerShard.submit_count`, as a
    ``POST /v1/jobs`` does; a group whose tenant's quota is spent counts
    as refused.
    """
    schedule = shard_schedule(stream, shard.index, shard.tenant_ids, rotation_seed)
    return drive_arrivals(
        (
            (n_jobs, partial(shard.submit_count, tenant_id, n_jobs, arrival_time))
            for arrival_time, tenant_id, n_jobs in schedule
        ),
        refused=QuotaExceededError,
    )


def run_fleet_load(
    fleet_config: FleetConfig,
    load: LoadGenConfig,
    registry: Optional[TenantRegistry] = None,
) -> FleetLoadResult:
    """Drive one open-loop load run through a fresh fleet.

    ``load`` is the fleet-wide stream, split per shard by
    :func:`shard_streams`. Empty shards (no tenants routed to them)
    receive no arrivals; their brokers still run to completion so every
    shard's digest is in the fleet hash. Each shard's submit clock covers
    :meth:`BrokerShard.submit_count` — job synthesis on the shard, then
    quote, admit and dispatch — but not the schedule or tenant draws.
    """
    # Every refusal happens before FleetManager exists: under the
    # multiprocess executor a later one would leak the workers.
    if load.bucket != fleet_config.bucket:
        raise ValueError(
            f"load bucket {load.bucket.value!r} differs from the fleet's "
            f"{fleet_config.bucket.value!r}"
        )
    registry = registry if registry is not None else default_registry()
    n_shards = fleet_config.n_shards
    streams = shard_streams(load, {
        index: [t.tenant_id for t in registry.tenants_for_shard(index, n_shards)]
        for index in range(n_shards)
    })
    manager = FleetManager(fleet_config, registry)

    t0 = time.perf_counter()  # repro: allow[DET001] submit-phase meter
    driven = manager.executor.run_load(
        {index: (stream, load.seed) for index, stream in streams.items()}
    )
    submit_phase_wall_s = time.perf_counter() - t0  # repro: allow[DET001] submit-phase meter

    t0 = time.perf_counter()  # repro: allow[DET001] drain-time meter
    report = manager.finish()
    drain_wall_s = time.perf_counter() - t0  # repro: allow[DET001] drain-time meter

    return FleetLoadResult(
        config=load,
        fleet=fleet_config,
        report=report,
        shard_timings=[
            driven.get(index) or SubmissionTiming() for index in range(n_shards)
        ],
        drain_wall_s=drain_wall_s,
        submit_phase_wall_s=submit_phase_wall_s,
        executor_name=manager.executor_name,
    )


@dataclass
class ClientLoadResult:
    """Summary of one HTTP client-driven load run (``loadgen --url``)."""

    url: str
    n_submitted: int = 0
    n_admitted: int = 0
    n_rejected: int = 0
    n_groups: int = 0
    quota_refusals: int = 0
    exhausted_tenants: tuple[str, ...] = ()
    submit_wall_s: float = 0.0

    @property
    def jobs_per_s(self) -> float:
        if self.submit_wall_s <= 0:
            return 0.0
        return self.n_submitted / self.submit_wall_s

    def render(self) -> str:
        lines = [
            f"client load: {self.n_submitted} jobs in {self.n_groups} "
            f"requests against {self.url} "
            f"({self.jobs_per_s:,.0f} jobs/s over HTTP)",
            f"outcomes: {self.n_admitted} admitted, {self.n_rejected} "
            f"rejected, {self.quota_refusals} quota refusals",
        ]
        if self.exhausted_tenants:
            lines.append(
                "exhausted tenants: " + ", ".join(self.exhausted_tenants)
            )
        return "\n".join(lines)


def run_client_load(
    url: str, load: LoadGenConfig, timeout_s: float = 30.0
) -> ClientLoadResult:
    """Drive a *served* fleet over HTTP through :class:`FleetClient`.

    The in-process driver (:func:`run_fleet_load`) measures the brokers;
    this drives the whole service — schema validation, routing, JSON —
    against whatever ``repro fleet serve`` stood up. It replays the
    in-process schedule: tenants grouped by home shard as ``GET
    /v1/tenants`` reports them, each shard's :func:`shard_schedule` sent
    in order with its ``arrival_time_s``, the shards interleaved by
    ``(time, shard)``. After a tenant's first HTTP 429 its later groups
    are skipped without a request; ``quota_refusals`` counts both.
    """
    from .client import FleetAPIError, FleetClient

    result = ClientLoadResult(url=url)
    with FleetClient(url, timeout_s=timeout_s) as client:
        by_shard: dict[int, list[str]] = {}
        for tenant in client.tenants():
            by_shard.setdefault(tenant.shard, []).append(tenant.tenant_id)
        schedules = [
            shard_schedule(stream, index, by_shard[index], load.seed)
            for index, stream in shard_streams(load, by_shard).items()
        ]
        exhausted: list[str] = []
        # merge() breaks equal arrival times by schedule, i.e. shard order.
        for t, tenant_id, n_jobs in heapq.merge(
            *schedules, key=lambda group: group[0]
        ):
            if tenant_id in exhausted:
                result.quota_refusals += 1
                continue
            t0 = time.perf_counter()  # repro: allow[DET001] throughput meter
            try:
                submitted = client.submit(tenant_id, n_jobs, arrival_time_s=t)
            except FleetAPIError as exc:
                if exc.code != "quota_exhausted":
                    raise
                exhausted.append(tenant_id)
                result.quota_refusals += 1
                continue
            finally:
                result.submit_wall_s += time.perf_counter() - t0  # repro: allow[DET001] throughput meter
            result.n_groups += 1
            result.n_submitted += len(submitted.outcomes)
            result.n_admitted += submitted.n_admitted
            result.n_rejected += len(submitted.outcomes) - submitted.n_admitted
        result.exhausted_tenants = tuple(exhausted)
    return result
