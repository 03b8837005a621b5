"""Determinism harness: prove seeded runs reproduce bit-for-bit.

The engine's FIFO tie-break and the seeded RNGs promise that a whole
simulation is a pure function of its inputs. This module turns that
promise into checkable contracts over named digests:

* :func:`hash_trace` — SHA-256 over every lifecycle timestamp of a
  :class:`RunTrace` (floats at full bit precision; defined in
  :mod:`repro.sim.tracing`, where a shard worker uses it), and
  :func:`first_divergence`, which names the first record and field where
  two traces disagree instead of just "hashes differ".
* :class:`Cell` — what one run attaches: a scheduler, spot churn with
  billing (econ), a scaling policy, telemetry (obs), and — for a sharded
  fleet — the executor that drives the shards and whether the schedule
  arrives directly or over HTTP. :func:`run_cell` makes
  the run and returns its digests (``trace``, ``ledger``, ``audit``,
  ``fleet``, ``registry``) plus the counts a report prints.
* Two contract kinds over cells. :class:`Double` runs one cell twice and
  requires every named digest to match. :class:`Same` requires two cells
  to agree on the named digests: an observer or an idle policy must not
  move anything, and neither may the executor or the HTTP front.

``repro check`` is a loop over :data:`CHECKS`, one row per contract.
:func:`run_checks` caches each cell's first run, so a run two contracts
need is made once; only a :class:`Double`'s second run is always fresh.
Single-environment runs carry the runtime invariant checker
(:mod:`repro.analysis.invariants`) unless ``invariants=False``, so a
structurally broken run fails loudly instead of merely hashing
differently.

CLI::

    repro check                 # every row of the table
    repro check --scheduler Op  # per-scheduler rows for Op only
    repro check --no-fleet      # skip rows that run a fleet
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence, Union

from ..econ import EconConfig, SpotMarketConfig, attach_econ
from ..experiments.config import DEFAULT_SPEC, ExperimentSpec
from ..experiments.runner import PAPER_SCHEDULERS, run_one
from ..obs import attach_obs
from ..policy import ConvergerConfig, PolicyConfig, ScalingPolicy, attach_policy
from ..sim.environment import CloudBurstEnvironment
from ..sim.tracing import (
    _RECORD_FIELDS, _TRACE_FIELDS, RunTrace, _canon, canonical_records, hash_trace,
)
from .invariants import install_invariants

__all__ = [
    "Divergence",
    "hash_trace",
    "canonical_records",
    "first_divergence",
    "ECON_SCHEDULERS",
    "Cell",
    "CellRun",
    "attach_cell",
    "run_cell",
    "Double",
    "Same",
    "Check",
    "CheckResult",
    "check_table",
    "CHECKS",
    "run_checks",
]


@dataclass(frozen=True)
class Divergence:
    """Where two supposedly identical runs first disagreed."""

    #: Index into ``trace.records``, or ``None`` for a run-level field.
    record_index: Optional[int]
    #: ``(job_id, sub_id)`` of the divergent record, when record-level.
    job_key: Optional[tuple[int, int]]
    field: str
    value_a: str
    value_b: str

    def render(self) -> str:
        where = (
            f"record #{self.record_index} (job {self.job_key})"
            if self.record_index is not None
            else "run-level"
        )
        return (
            f"first divergence at {where}, field {self.field!r}: "
            f"run A = {self.value_a} vs run B = {self.value_b}"
        )


def first_divergence(a: RunTrace, b: RunTrace) -> Optional[Divergence]:
    """Locate the earliest field where two traces disagree, if any."""
    rows = enumerate(zip(canonical_records(a), canonical_records(b)))
    for index, (row_a, row_b) in rows:
        for name, va, vb in zip(_RECORD_FIELDS, row_a, row_b):
            if va != vb:
                rec = a.records[index]
                return Divergence(index, (rec.job_id, rec.sub_id), name, va, vb)
    if len(a.records) != len(b.records):
        return Divergence(
            None, None, "len(records)", str(len(a.records)), str(len(b.records))
        )
    for name in _TRACE_FIELDS:
        va, vb = _canon(getattr(a, name)), _canon(getattr(b, name))
        if va != vb:
            return Divergence(None, None, name, va, vb)
    if a.bandwidth_samples != b.bandwidth_samples:
        return Divergence(
            None,
            None,
            "bandwidth_samples",
            str(len(a.bandwidth_samples)),
            str(len(b.bandwidth_samples)),
        )
    return None




# ----------------------------------------------------------------------
# Cells: what one seeded run attaches
# ----------------------------------------------------------------------

#: Schedulers the econ and policy rows double-run: the paper's four plus
#: the cost-aware variant the ledger actually steers.
ECON_SCHEDULERS = PAPER_SCHEDULERS + ("CostAware",)

#: Spot market with a finite bid, so the preemption (kill-and-requeue)
#: path is on the hashed path.
SPOT_CHURN = EconConfig(
    spot=SpotMarketConfig(bid_usd_per_hour=0.13, variation=0.4)
)

#: The scaling policies a cell can name.
POLICIES = {
    # A steady target above the default EC pool size, converging
    # *effective* capacity with a launch delay: spot preemptions and
    # offline windows force replacement launches mid-run, and the
    # delete-offline reclaim path runs too.
    "hold": PolicyConfig(
        policies=(
            ScalingPolicy(
                name="hold-capacity", action="target", amount=6,
                max_capacity=16,
            ),
        ),
        converger=ConvergerConfig(interval_s=180.0, launch_delay_s=30.0),
    ),
    # Never triggers: the converger ticks but must not move a hashed bit.
    "idle": PolicyConfig(
        policies=(
            ScalingPolicy(
                name="never", trigger="queue", queue_at_least=10**9,
                action="step_up",
            ),
        ),
        converger=ConvergerConfig(interval_s=120.0),
    ),
}


@dataclass(frozen=True)
class Cell:
    """What one seeded run attaches.

    ``executor`` is ``None`` for a single environment replaying the
    experiment spec, or a fleet executor name (``"inprocess"`` or
    ``"multiprocess"``) for a multi-tenant fleet of ``shards`` brokers
    taking ``jobs`` arrivals at 50 jobs/s. ``starved`` adds a tenant
    with a five-job quota, so the quota refusal path is hashed too.
    ``http`` sends the fleet's schedule over HTTP to an in-thread
    :class:`~repro.fleet.FleetAPIServer`, as ``fleet serve`` ships it.
    """

    scheduler: str = "Op"
    #: Billing and penalties on a churning spot market (single env only).
    econ: bool = False
    #: A key of :data:`POLICIES`, or ``None`` for no policy plane.
    policy: Optional[str] = None
    #: Telemetry: :func:`repro.obs.attach_obs`, or the fleet's own.
    obs: bool = False
    executor: Optional[str] = None
    shards: int = 4
    jobs: int = 200
    starved: bool = False
    http: bool = False

    def __post_init__(self) -> None:
        if self.econ and self.executor is not None:
            raise ValueError("spot churn is a single-environment axis")
        if self.http and self.executor is None:
            raise ValueError("only a fleet is served over HTTP")

    @property
    def axes(self) -> frozenset[str]:
        """The ``repro check --no-*`` axes this cell uses."""
        used = {
            "econ": self.econ,
            "policy": self.policy is not None,
            "obs": self.obs,
            "fleet": self.executor is not None,
        }
        return frozenset(axis for axis, on in used.items() if on)

    def __str__(self) -> str:
        name = self.scheduler
        if self.econ:
            name += "+spot"
        if self.policy is not None:
            name += f"+{self.policy}"
        if self.obs:
            name += "+obs"
        if self.executor is None:
            return name
        starved = ",starved" if self.starved else ""
        http = " http" if self.http else ""
        return f"fleet[{self.shards}x{self.jobs}{starved}] {name} {self.executor}{http}"


@dataclass(frozen=True)
class CellRun:
    """One run of a cell: its named digests and the counts reports print."""

    #: The run's trace; ``None`` for a fleet, whose shards hash their own.
    trace: Optional[RunTrace]
    digests: dict[str, str]
    counts: dict[str, int]
    #: A fleet's per-shard trace digests (or ``LOST`` markers), in
    #: shard-index order; empty for a single environment.
    shard_hashes: tuple[str, ...] = ()


def attach_cell(
    env: CloudBurstEnvironment, cell: Cell, invariants: bool = True
) -> None:
    """The env hook of a single-environment cell: arm what it attaches."""
    if invariants:
        install_invariants(env)
    if cell.econ:
        attach_econ(env, SPOT_CHURN)
    if cell.policy is not None:
        attach_policy(env, POLICIES[cell.policy])
    if cell.obs:
        attach_obs(env)


def run_cell(
    cell: Cell,
    spec: ExperimentSpec = DEFAULT_SPEC,
    seed: int = 2024,
    invariants: bool = True,
) -> CellRun:
    """Make one fresh run of ``cell``.

    A single-environment cell replays ``spec``'s workload, with the
    runtime invariant checker armed when ``invariants``; a fleet cell
    seeds its shards and arrivals from ``seed``.
    """
    if cell.executor is not None:
        return _run_fleet(cell, seed)
    trace = run_one(
        cell.scheduler,
        spec,
        env_hook=lambda env: attach_cell(env, cell, invariants),
    )
    meta = trace.metadata
    digests = {"trace": hash_trace(trace)}
    counts = {"records": len(trace.records)}
    if cell.econ:
        digests["ledger"] = str(meta["econ"]["ledger_sha256"])
        counts["preemptions"] = int(meta["econ"]["preemptions"])
    if cell.policy is not None:
        digests["audit"] = str(meta["policy"]["audit_sha256"])
        summary = meta["policy"]["summary"]
        counts["ticks"] = int(summary["ticks"])
        counts["steps"] = sum(
            n for kind, n in summary["steps"].items() if kind != "failed"
        )
    if cell.obs:
        digests["registry"] = str(meta["obs"]["registry_sha256"])
        counts["families"] = len(meta["obs"]["registry"]["families"])
        counts["spans"] = int(meta["obs"]["spans"]["summary"]["kept"])
    return CellRun(trace, digests, counts)


def _run_fleet(cell: Cell, seed: int) -> CellRun:
    # Local import: the fleet stack is heavy and only fleet cells need
    # it. The defining modules, not the lazily exporting packages, so
    # the strict type check sees real types.
    from ..fleet.api import serve_in_thread
    from ..fleet.loadgen import run_client_load, run_fleet_load
    from ..fleet.sharding import FleetConfig, FleetManager
    from ..fleet.tenants import BRONZE, TenantSpec, default_registry
    from ..service.loadgen import LoadGenConfig

    registry = default_registry(11 if cell.starved else 12)
    if cell.starved:
        registry.register(
            TenantSpec(tenant_id="starved-012", sla_class=BRONZE, quota_jobs=5)
        )
    config = FleetConfig(
        n_shards=cell.shards,
        seed=seed,
        scheduler=cell.scheduler,
        executor=cell.executor,
        telemetry=cell.obs,
        scaling=None if cell.policy is None else POLICIES[cell.policy],
    )
    load = LoadGenConfig(n_jobs=cell.jobs, rate_per_s=50.0, process="bursty", seed=seed)
    if cell.http:
        manager = FleetManager(config, registry)
        try:
            with serve_in_thread(manager) as server:
                refused = run_client_load(server.url, load).quota_refusals
        finally:
            report = manager.finish()  # also stops any workers
    else:
        result = run_fleet_load(config, load, registry=registry)
        report, refused = result.report, result.quota_refusals
    digests = {"fleet": report.sha256}
    if report.policy is not None:
        # One digest over every shard's audit log, in shard order.
        audits = "\x1e".join(str(shard["audit_sha256"]) for shard in report.policy)
        digests["audit"] = hashlib.sha256(audits.encode()).hexdigest()
    if report.obs is not None:
        digests["registry"] = report.obs.snapshot_sha256()
    counts = {
        "records": report.n_records,
        "refused groups": refused,
        "quota refusals": report.quota_rejected,
    }
    return CellRun(None, digests, counts, tuple(report.shard_hashes))


# ----------------------------------------------------------------------
# Contracts: Double and Same, one result type
# ----------------------------------------------------------------------

#: How a contract gets a run: ``run(cell)`` is the cell's cached first
#: run, ``run(cell, fresh=True)`` a new one.
Runner = Callable[..., CellRun]


@dataclass(frozen=True)
class CheckResult:
    """One contract's verdict."""

    label: str
    ok: bool
    #: The compared digests, as the first run produced them.
    digests: dict[str, str]
    counts: dict[str, int]
    #: Where the two traces first disagreed, when a digest differs.
    divergence: Optional[Divergence] = None
    detail: str = ""

    def render(self) -> str:
        if not self.ok:
            return f"{self.label}: FAIL  {self.detail}"
        shown = [f"{n} {name}" for name, n in self.counts.items()]
        shown += [f"{key} {digest[:16]}" for key, digest in self.digests.items()]
        return f"{self.label}: OK  {', '.join(shown)}"


def _compare(
    label: str, keys: tuple[str, ...], a: CellRun, b: CellRun
) -> CheckResult:
    differ = [key for key in keys if a.digests[key] != b.digests[key]]
    detail = ", ".join(
        f"{key} {a.digests[key][:16]} vs {b.digests[key][:16]}" for key in differ
    )
    divergence: Optional[Divergence] = None
    if differ and a.trace is not None and b.trace is not None:
        divergence = first_divergence(a.trace, b.trace)
        if divergence is not None:
            detail += f"; {divergence.render()}"
    elif differ:
        shards = enumerate(zip(a.shard_hashes, b.shard_hashes))
        for index, (hash_a, hash_b) in shards:
            if hash_a != hash_b:
                detail += (
                    f"; first divergence at shard[{index}]: "
                    f"run A = {hash_a[:16]} vs run B = {hash_b[:16]}"
                )
                break
    return CheckResult(
        label=label,
        ok=not differ,
        digests={key: a.digests[key] for key in keys},
        counts=b.counts,
        divergence=divergence,
        detail=detail,
    )


@dataclass(frozen=True)
class Double:
    """Run ``cell`` twice; every digest in ``keys`` must match."""

    cell: Cell
    keys: tuple[str, ...]

    @property
    def axes(self) -> frozenset[str]:
        return self.cell.axes

    @property
    def label(self) -> str:
        return f"{self.cell} x2"

    def verify(self, run: Runner) -> CheckResult:
        first, second = run(self.cell), run(self.cell, fresh=True)
        return _compare(self.label, self.keys, first, second)


@dataclass(frozen=True)
class Same:
    """Cells ``a`` and ``b`` must agree on every digest in ``keys``."""

    a: Cell
    b: Cell
    keys: tuple[str, ...]

    @property
    def axes(self) -> frozenset[str]:
        return self.a.axes | self.b.axes

    @property
    def label(self) -> str:
        return f"{self.a} == {self.b}"

    def verify(self, run: Runner) -> CheckResult:
        return _compare(self.label, self.keys, run(self.a), run(self.b))


Check = Union[Double, Same]


def check_table(
    schedulers: Optional[Sequence[str]] = None, shards: int = 4, jobs: int = 200
) -> tuple[Check, ...]:
    """The ``repro check`` contracts, one row each.

    ``schedulers`` replaces the sweep of the per-scheduler rows (the
    paper's four for the plain double run, plus CostAware with econ and
    policy attached); every other row runs Op. ``shards`` and ``jobs``
    size the fleet rows; the starved-tenant fleet takes twice the jobs.
    """
    fleet = Cell(executor="inprocess", shards=shards, jobs=jobs)
    shipped = replace(fleet, obs=True, policy="hold")
    shipped_mp = replace(shipped, executor="multiprocess")
    rows: list[Check] = [
        *(Double(Cell(s), ("trace",)) for s in schedulers or PAPER_SCHEDULERS),
        *(
            Double(Cell(s, econ=True), ("trace", "ledger"))
            for s in schedulers or ECON_SCHEDULERS
        ),
        Double(replace(fleet, jobs=2 * jobs, starved=True), ("fleet",)),
        Same(fleet, replace(fleet, executor="multiprocess"), ("fleet",)),
        Same(Cell(), Cell(obs=True), ("trace",)),
        Double(Cell(obs=True), ("trace", "registry")),
        Same(fleet, replace(fleet, obs=True), ("fleet",)),
        *(
            Double(Cell(s, econ=True, policy="hold"), ("trace", "ledger", "audit"))
            for s in schedulers or ECON_SCHEDULERS
        ),
        Same(Cell(), Cell(policy="idle"), ("trace",)),
        # What `fleet serve` ships, direct vs HTTP and across executors.
        # Worker-plane CPU histograms are wall-measured: no mp registry.
        Same(shipped, replace(shipped, http=True), ("fleet", "audit", "registry")),
        Same(shipped_mp, replace(shipped_mp, http=True), ("fleet", "audit")),
        Same(shipped, shipped_mp, ("fleet", "audit")),
    ]
    return tuple(rows)


#: The default table ``repro check`` loops over.
CHECKS = check_table()


def run_checks(
    checks: Sequence[Check],
    spec: ExperimentSpec = DEFAULT_SPEC,
    seed: int = 2024,
    invariants: bool = True,
) -> Iterator[CheckResult]:
    """Verify each contract in turn, making each cell's first run once."""
    cache: dict[Cell, CellRun] = {}

    def run(cell: Cell, fresh: bool = False) -> CellRun:
        if fresh:
            return run_cell(cell, spec, seed, invariants)
        if cell not in cache:
            cache[cell] = run_cell(cell, spec, seed, invariants)
        return cache[cell]

    for check in checks:
        yield check.verify(run)
