"""The canonical performance harness behind ``repro bench``.

Seven scenarios, each exercising one hot path the performance pass
optimises, each reported with the metric an operator would regress on:

* **engine** — raw event throughput of :class:`repro.sim.engine.Simulator`
  under the fluid-link cancel/reschedule churn that dominates real runs
  (lazy cancellation fills the heap with dead entries, so this also
  exercises heap compaction);
* **offline** — end-to-end wall time of :func:`repro.experiments.runner.
  run_one` for each of the paper's four schedulers on a shared pre-built
  LARGE-bucket workload (p50/p95 over repetitions);
* **loadgen** — sustained submission throughput (jobs/s) of the online
  broker under the bounded-admission heavy-traffic load driver, plus
  quote-latency percentiles;
* **loadgen_bursty** — the same broker path under the driver's compound
  Poisson (bursty) arrival process: bursts of ~8 jobs share one
  quote/admit/dispatch round trip, so this measures the batched
  submission path the steady scenario never exercises;
* **fleet_loadgen** — the sharded multi-tenant fleet
  (:mod:`repro.fleet`) under the aggregate load driver: per-shard
  substream arrival streams, tenant-class admission, cross-shard
  merging. Reports both the aggregate figure (total jobs over the
  slowest shard's submission wall — the N-process deployment rate the
  sharding exists for) and the honest single-process serial figure,
  plus the run's fleet SHA-256 so a bench run doubles as a determinism
  witness;
* **obs_overhead** — the bursty loadgen run twice per rep, telemetry
  attached (:func:`repro.obs.attach_obs`, full metric catalogue + span
  recording) vs bare, min CPU seconds over reps on both arms; the
  scored figure is ``overhead_pct``, the telemetry tax on the broker
  hot path. The repo's observer contract budgets this at ≤ 5%;
* **policy_convergence** — the bursty loadgen run twice per rep, the
  convergence autoscaler (:mod:`repro.policy`) attached vs bare. The
  attached arm's policy proposes exactly the current capacity, so the
  converger runs its full observe/resolve/audit loop every interval
  while emitting zero scaling steps — the figure is the pure control-
  plane tax, not the (intended) cost of actually scaling. Min CPU
  seconds over reps on both arms; ``overhead_pct`` is budgeted at
  ≤ 5%, and all reps must agree on the convergence audit SHA-256 so
  the scenario doubles as a determinism witness;
* **fleet_loadgen_procs** — the same fleet workload under the
  *multiprocess* executor (one spawned worker process per shard) next
  to an in-process baseline. The two executors must produce one fleet
  SHA-256 (enforced — this scenario is the bench-side executor-parity
  witness); the scored figure is the aggregate rate on the per-worker
  CPU clock (total jobs over the slowest shard's submit CPU seconds:
  what one-core-per-shard deploys at, measured honestly even when the
  bench box timeshares the workers on fewer cores), and
  ``speedup_vs_inprocess`` pins it against the in-process serial
  figure.

``run_bench`` writes the machine-readable report to ``BENCH_core.json``
(schema below) and returns it; ``repro bench --smoke`` runs a tiny preset
that exercises every scenario in seconds for CI.

JSON schema (``schema_version`` 6)::

    {
      "schema_version": 6,
      "smoke": bool,
      "python": "3.x.y",
      "preset": {"engine_events": int, "offline_n_batches": int,
                 "offline_reps": int, "loadgen_jobs": int,
                 "loadgen_bursty_jobs": int, "fleet_jobs": int,
                 "fleet_shards": int, "fleet_reps": int,
                 "fleet_procs_jobs": int, "obs_jobs": int,
                 "obs_reps": int, "policy_jobs": int,
                 "policy_reps": int},
      "scenarios": {
        "engine":  {"events_per_s": float, "n_events": int,
                    "wall_s": float, "compactions": int},
        "offline": {"n_batches": int, "schedulers": {
                      "<name>": {"wall_s_p50": float, "wall_s_p95": float,
                                 "wall_s_min": float, "records": int,
                                 "reps": int}}},
        "loadgen": {"jobs_per_s": float, "n_jobs": int, "scheduler": str,
                    "process": str, "submit_wall_s": float,
                    "drain_wall_s": float, "quote_p50_ms": float,
                    "quote_p95_ms": float},
        "loadgen_bursty": <same shape as "loadgen">,
        "obs_overhead": {"overhead_pct": float, "plain_cpu_s": float,
                    "obs_cpu_s": float, "plain_jobs_per_s": float,
                    "obs_jobs_per_s": float, "n_jobs": int, "reps": int,
                    "n_metric_families": int, "spans_kept": int},
        "policy_convergence": {"overhead_pct": float,
                    "plain_cpu_s": float, "policy_cpu_s": float,
                    "plain_jobs_per_s": float,
                    "policy_jobs_per_s": float, "n_jobs": int,
                    "reps": int, "ticks": int, "steps_applied": int,
                    "audit_sha256": str},
        "fleet_loadgen": {"aggregate_jobs_per_s": float,
                    "serial_jobs_per_s": float, "n_jobs": int,
                    "n_shards": int, "n_tenants": int, "reps": int,
                    "scheduler": str, "process": str,
                    "max_shard_wall_s": float,
                    "total_shard_wall_s": float, "drain_wall_s": float,
                    "quota_rejected": int, "fleet_sha256": str},
        "fleet_loadgen_procs": {"aggregate_jobs_per_s": float,
                    "wall_jobs_per_s": float,
                    "inprocess_serial_jobs_per_s": float,
                    "speedup_vs_inprocess": float, "n_jobs": int,
                    "n_shards": int, "reps": int, "scheduler": str,
                    "process": str, "executor": "multiprocess",
                    "max_shard_cpu_s": float,
                    "submit_phase_wall_s": float, "drain_wall_s": float,
                    "fleet_sha256": str}
      }
    }

Wall-clock timing is inherently non-deterministic, which is the point of
a benchmark; the DET001 suppressions below mark every such site.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:
    from ..fleet import FleetLoadResult
    from ..service import LoadGenResult, SLAPolicy

__all__ = ["SCHEMA_VERSION", "BenchPreset", "BenchReport", "run_bench"]

SCHEMA_VERSION = 6


@dataclass(frozen=True, kw_only=True)
class BenchPreset:
    """Workload sizes for one harness run."""

    engine_events: int
    offline_n_batches: int
    offline_reps: int
    loadgen_jobs: int
    loadgen_bursty_jobs: int = 0
    fleet_jobs: int = 0
    fleet_shards: int = 4
    fleet_reps: int = 1
    #: Jobs for the multiprocess-executor scenario (0 skips it); it
    #: reuses ``fleet_shards`` for the shard count.
    fleet_procs_jobs: int = 0
    #: Jobs for the telemetry-overhead scenario (0 skips it).
    obs_jobs: int = 0
    obs_reps: int = 3
    #: Jobs for the policy control-plane overhead scenario (0 skips it).
    policy_jobs: int = 0
    policy_reps: int = 3


#: The canonical preset: large enough that per-run noise is small and the
#: offline scenario pushes ~1e4 job records through each scheduler.
FULL = BenchPreset(
    engine_events=300_000,
    offline_n_batches=600,
    offline_reps=3,
    loadgen_jobs=8_000,
    loadgen_bursty_jobs=4_000,
    fleet_jobs=40_000,
    fleet_shards=8,
    fleet_reps=3,
    fleet_procs_jobs=8_000,
    obs_jobs=4_000,
    obs_reps=5,
    policy_jobs=4_000,
    policy_reps=5,
)

#: CI preset: every scenario runs, nothing takes more than a few seconds.
SMOKE = BenchPreset(
    engine_events=20_000,
    offline_n_batches=8,
    offline_reps=1,
    loadgen_jobs=200,
    loadgen_bursty_jobs=150,
    fleet_jobs=400,
    fleet_procs_jobs=400,
    obs_jobs=200,
    policy_jobs=200,
)


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_vals:
        return float("nan")
    k = int(round(q / 100.0 * (len(sorted_vals) - 1)))
    return sorted_vals[max(0, min(len(sorted_vals) - 1, k))]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _engine_scenario(n_events: int) -> dict[str, Any]:
    """Event throughput under fluid-link-style cancel/reschedule churn.

    Sixteen ticking slots each also hold one *far-future* completion
    estimate; every tick cancels and re-pushes two neighbouring slots'
    estimates before re-arming its own tick — the access pattern
    :class:`repro.sim.network.FluidLink` produces on every capacity
    change, where the next-completion event is repeatedly postponed long
    before it would ever fire. Two of every three pushed events die
    cancelled far from the heap top, so the dead backlog grows until the
    engine's periodic compaction rebuilds the heap.
    """
    from ..sim.engine import Simulator

    sim = Simulator()
    schedule_at = sim.schedule_at
    n_slots = 16
    far: list[Any] = [None] * n_slots
    count = [0]

    def noop() -> None:
        pass

    def fire(slot: int) -> None:
        # Driver kept deliberately lean (locals, no properties): the
        # scenario measures the engine, not its own scaffolding.
        c = count[0] = count[0] + 1
        if c >= n_events:
            return
        now = sim.now
        for off in (1, 2):
            j = (slot + off) % n_slots
            ev = far[j]
            if ev is not None and not ev.cancelled:
                ev.cancel()
            far[j] = schedule_at(now + 1000.0 + j, noop)
        schedule_at(now + 1.0, fire, slot)

    for j in range(n_slots):
        schedule_at(float(j + 1), fire, j)

    t0 = time.perf_counter()  # repro: allow[DET001] wall throughput is the measurement
    sim.run(max_events=n_events)
    wall_s = time.perf_counter() - t0  # repro: allow[DET001] wall throughput is the measurement
    return {
        "events_per_s": sim.events_processed / wall_s if wall_s > 0 else 0.0,
        "n_events": sim.events_processed,
        "wall_s": wall_s,
        "compactions": sim.compactions,
    }


def _offline_scenario(n_batches: int, reps: int) -> dict[str, Any]:
    """End-to-end ``run_one`` wall time per paper scheduler.

    The workload is built once and shared across schedulers and reps so
    the clock sees scheduling + simulation, not workload synthesis.
    """
    from ..experiments.config import DEFAULT_SPEC
    from ..experiments.runner import PAPER_SCHEDULERS, build_workload, run_one
    from ..workload.distributions import Bucket

    spec = replace(DEFAULT_SPEC.with_bucket(Bucket.LARGE), n_batches=n_batches)
    batches = build_workload(spec)
    schedulers: dict[str, Any] = {}
    for name in PAPER_SCHEDULERS:
        walls: list[float] = []
        n_records = 0
        for _ in range(reps):
            t0 = time.perf_counter()  # repro: allow[DET001] wall time is the measurement
            trace = run_one(name, spec, batches=batches)
            walls.append(time.perf_counter() - t0)  # repro: allow[DET001] wall time is the measurement
            n_records = len(trace.records)
        walls.sort()
        schedulers[name] = {
            "wall_s_p50": _percentile(walls, 50),
            "wall_s_p95": _percentile(walls, 95),
            "wall_s_min": walls[0],
            "records": n_records,
            "reps": reps,
        }
    return {"n_batches": n_batches, "schedulers": schedulers}


def _broker_policy() -> "SLAPolicy":
    """The load driver's production-shaped admission policy.

    Proportional tickets with ``max_in_system`` backpressure: an
    *unbounded* policy turns a run into a pure overload study where
    queue length, not broker cost, dominates the clock. Every broker and
    fleet scenario sells promises under this one policy (fleet tenants'
    SLA classes rescale it on top).
    """
    from ..metrics.tickets import ProportionalTicket
    from ..service import SLAPolicy

    return SLAPolicy(
        ticket=ProportionalTicket(base_s=300.0, factor=6.0),
        degraded_slack_s=-120.0,
        max_in_system=60,
    )


#: Arrival knobs shared by the single-broker and fleet load runs: the
#: fleet aggregate stays comparable to ``loadgen_bursty`` per shard.
_LOAD_KNOBS: dict[str, Any] = {
    "rate_per_s": 50.0,
    "mean_burst_jobs": 8.0,
    "seed": 2024,
}


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic GC for a block of timed reps, restoring it after."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _broker_run(
    n_jobs: int, process: str, attach: Optional[Callable[[Any], Any]] = None
) -> tuple["LoadGenResult", Any, float]:
    """One seeded load-driver run through a fresh broker.

    Builds a fresh environment, runs ``attach(env)`` (if given) before
    the scheduler is made, then drives ``n_jobs`` arrivals of the given
    ``process`` through the ``Op`` scheduler under :func:`_broker_policy`.
    Returns ``(LoadGenResult, attach's return value, cpu_s)``, where
    ``cpu_s`` is the process CPU clock around ``run_load`` alone.
    """
    from ..experiments.config import DEFAULT_SPEC
    from ..experiments.runner import make_scheduler
    from ..service import LoadGenConfig, run_load
    from ..sim.environment import CloudBurstEnvironment

    policy = _broker_policy()
    config = LoadGenConfig(n_jobs=n_jobs, process=process, **_LOAD_KNOBS)
    env = CloudBurstEnvironment(DEFAULT_SPEC.system)
    attached = attach(env) if attach is not None else None
    scheduler = make_scheduler("Op", env)
    t0 = time.process_time()  # repro: allow[DET001] CPU cost is the measurement
    result = run_load(env, scheduler, policy, config)
    cpu_s = time.process_time() - t0  # repro: allow[DET001] CPU cost is the measurement
    return result, attached, cpu_s


def _loadgen_scenario(n_jobs: int, process: str = "poisson") -> dict[str, Any]:
    """Broker submission throughput under the bounded heavy-traffic driver.

    ``process`` selects the arrival process: ``"poisson"`` submits one
    job per broker round trip, ``"bursty"`` (compound Poisson, ~8 jobs
    per burst) exercises the batched submission path.
    """
    result, _, _ = _broker_run(n_jobs, process)
    return {
        "jobs_per_s": result.jobs_per_s,
        "n_jobs": result.n_submitted,
        "scheduler": result.scheduler_name,
        "process": process,
        "submit_wall_s": result.submit_wall_s,
        "drain_wall_s": result.drain_wall_s,
        "quote_p50_ms": result.latency_percentile_ms(50),
        "quote_p95_ms": result.latency_percentile_ms(95),
    }


def _overhead(
    n_jobs: int, reps: int, attach: Callable[[Any], Any], arm: str
) -> tuple[dict[str, Any], list[Any]]:
    """An attachment's tax on the broker: one bursty run, bare vs attached.

    Identical seeded workload both ways; the attached arm runs
    ``attach(env)`` before the run, and its cost includes the plugin's
    ``finalize``. Per rep the two arms alternate (bare first) so slow
    drift of the bench box charges both equally, GC is paused over all
    reps, and the clock is the **process CPU clock**: the absolute cost
    is a few ms, which wall-clock jitter on a shared box would bury. The
    scored ``overhead_pct`` compares min CPU seconds across reps; the
    rates are the max across reps. Figures of the attached arm are
    keyed ``<arm>_cpu_s`` / ``<arm>_jobs_per_s``. Returns the figures and
    each rep's attached runtime, in rep order.
    """
    reps = max(1, reps)
    plain, attached = [], []
    with _gc_paused():
        for _ in range(reps):
            plain.append(_broker_run(n_jobs, "bursty"))
            attached.append(_broker_run(n_jobs, "bursty", attach))
    plain_cpu = min(cpu_s for _, _, cpu_s in plain)
    arm_cpu = min(cpu_s for _, _, cpu_s in attached)
    overhead = (arm_cpu / plain_cpu - 1.0) * 100.0 if plain_cpu > 0 else 0.0
    figures = {
        "overhead_pct": overhead,
        "plain_cpu_s": plain_cpu,
        f"{arm}_cpu_s": arm_cpu,
        "plain_jobs_per_s": max(r.jobs_per_s for r, _, _ in plain),
        f"{arm}_jobs_per_s": max(r.jobs_per_s for r, _, _ in attached),
        "n_jobs": n_jobs,
        "reps": reps,
    }
    return figures, [runtime for _, runtime, _ in attached]


def _obs_overhead_scenario(n_jobs: int, reps: int) -> dict[str, Any]:
    """The telemetry tax: the full :mod:`repro.obs` catalogue (counters,
    histograms, span recording at fraction 1.0) attached vs bare.

    The attached arm's cost includes ``finalize`` — the snapshot, its
    SHA-256, and the span export are part of what an instrumented run
    pays. The repo's observer contract budgets ``overhead_pct`` at
    <= 5%.
    """
    from ..obs import attach_obs

    figures, runtimes = _overhead(n_jobs, reps, attach_obs, "obs")
    runtime = runtimes[-1]
    figures["n_metric_families"] = len(runtime.registry.families())
    figures["spans_kept"] = runtime.spans.kept
    return figures


def _hold_steady(env: Any) -> Any:
    """Attach a converger whose only policy targets the current capacity."""
    from ..policy import ConvergerConfig, PolicyConfig, ScalingPolicy
    from ..policy import attach_policy

    capacity = env.ec.n_machines
    return attach_policy(
        env,
        PolicyConfig(
            policies=(
                ScalingPolicy(
                    name="hold-steady",
                    action="target",
                    amount=capacity,
                    max_capacity=max(capacity, 64),
                ),
            ),
            converger=ConvergerConfig(interval_s=30.0),
        ),
    )


def _policy_convergence_scenario(n_jobs: int, reps: int) -> dict[str, Any]:
    """The policy control-plane tax: the convergence autoscaler
    (:mod:`repro.policy`) attached vs bare.

    The attached arm's steady-state policy targets the pool's current
    capacity, so every tick pays the full observe/resolve/propose/audit
    loop but emits zero scaling steps — the measured delta is pure
    control plane, not the (intended) cost of launching or draining
    machines. ``overhead_pct`` is budgeted at <= 5%. All reps must land
    on one convergence audit SHA-256, making the scenario a bench-side
    determinism witness for the policy plane.
    """
    figures, runtimes = _overhead(n_jobs, reps, _hold_steady, "policy")
    audits = {runtime.converger.audit_sha256() for runtime in runtimes}
    if len(audits) != 1:
        raise RuntimeError(
            f"policy bench diverged across {figures['reps']} reps: "
            f"{sorted(audits)}"
        )
    converger = runtimes[-1].converger
    totals = converger.step_totals()
    applied = sum(n for kind, n in totals.items() if kind != "failed")
    if applied:
        raise RuntimeError(
            "policy bench scaled the pool — the steady-state policy must "
            f"emit zero steps to measure pure control-plane cost: {totals}"
        )
    figures["ticks"] = converger.ticks
    figures["steps_applied"] = applied
    figures["audit_sha256"] = audits.pop()
    return figures


def _fleet_runs(
    n_jobs: int, n_shards: int, reps: int, executors: tuple[str, ...]
) -> dict[str, list["FleetLoadResult"]]:
    """Repeat one seeded fleet load run, returning results per executor.

    Each rep runs the bursty fleet workload once under every executor,
    in the order given, each on a fresh fleet and tenant registry; GC is
    paused over all reps. The tenant population scales with the shard
    count (three SLA-class cycles worth) so every shard has at least one
    tenant routed to it. Every run — all executors, all reps — must land
    on one fleet SHA-256 (same seed, same config) and lose no shard, so
    each fleet scenario doubles as an enforced determinism witness.
    """
    from ..fleet import FleetConfig, default_registry, run_fleet_load
    from ..service import LoadGenConfig

    fleet = FleetConfig(
        n_shards=n_shards, seed=2024, scheduler="Op", policy=_broker_policy()
    )
    load = LoadGenConfig(n_jobs=n_jobs, process="bursty", **_LOAD_KNOBS)
    reps = max(1, reps)
    runs: dict[str, list["FleetLoadResult"]] = {e: [] for e in executors}
    with _gc_paused():
        for _ in range(reps):
            for executor in executors:
                runs[executor].append(
                    run_fleet_load(
                        replace(fleet, executor=executor),
                        load,
                        registry=default_registry(3 * n_shards),
                    )
                )
    every = [r for results in runs.values() for r in results]
    digests = {r.report.sha256 for r in every}
    if len(digests) != 1:
        raise RuntimeError(
            f"fleet bench diverged across {reps} reps of {list(executors)}: "
            f"{len(digests)} distinct fleet digests {sorted(digests)}"
        )
    lost = {i for r in every for i in r.lost_shards}
    if lost:
        raise RuntimeError(f"bench fleet lost worker shard(s) {sorted(lost)}")
    return runs


def _best_per_shard(results: list["FleetLoadResult"], field: str) -> list[float]:
    """Each shard's best (min) submission ``field`` across reps."""
    return [
        min(getattr(r.shard_timings[i], field) for r in results)
        for i in range(len(results[0].shard_timings))
    ]


def _fleet_scenario(n_jobs: int, n_shards: int, reps: int) -> dict[str, Any]:
    """Aggregate fleet throughput across sharded multi-tenant brokers.

    Same admission policy as the single-broker loadgen scenarios and the
    same bursty arrival process — the aggregate figure is directly
    comparable to ``loadgen_bursty`` times the shard count, minus the
    multi-tenant bookkeeping overhead.

    Each shard's wall is its *best* across reps. The aggregate figure
    models one process per shard, so a co-tenant stall of this container
    landing on a random shard during one rep should not be charged
    against fleet capacity — min-over-reps per shard is the fleet
    analogue of the min-wall convention the offline scenario already
    uses.
    """
    results = _fleet_runs(n_jobs, n_shards, reps, ("inprocess",))["inprocess"]
    first = results[0]
    n_submitted = first.n_submitted
    best_walls = _best_per_shard(results, "submit_wall_s")
    max_wall = max(best_walls, default=0.0)
    total_wall = sum(best_walls)
    return {
        "aggregate_jobs_per_s": n_submitted / max_wall if max_wall > 0 else 0.0,
        "serial_jobs_per_s": n_submitted / total_wall if total_wall > 0 else 0.0,
        "n_jobs": n_submitted,
        "n_shards": n_shards,
        "n_tenants": len(first.report.tenants),
        "reps": len(results),
        "scheduler": first.fleet.scheduler,
        "process": first.config.process,
        "max_shard_wall_s": max_wall,
        "total_shard_wall_s": total_wall,
        "drain_wall_s": min(r.drain_wall_s for r in results),
        "quota_rejected": first.report.quota_rejected,
        "fleet_sha256": first.report.sha256,
    }


def _fleet_procs_scenario(n_jobs: int, n_shards: int, reps: int) -> dict[str, Any]:
    """The fleet workload under one worker process per shard.

    Two runs per rep: the multiprocess executor (spawn-context workers
    driving their shards concurrently) and the in-process baseline
    driving the same shards sequentially. Both executors landing on one
    fleet SHA-256 is the bench-side half of the ``repro check``
    executor-parity gate.

    The scored figure is the aggregate rate on the **per-worker CPU
    clock**: total jobs over the slowest shard's submit CPU seconds
    (best across reps, the min-wall convention). One core per shard is
    the deployment the multiprocess executor exists for, and the CPU
    clock measures that deployment honestly even when the bench box
    timeshares all workers on fewer cores — wall-clock aggregate on an
    oversubscribed box would charge scheduler interleaving against
    fleet capacity. The parent-side ``wall_jobs_per_s`` (jobs over the
    whole concurrent submission phase, IPC included) is reported
    unscored for exactly that reason.
    """
    runs = _fleet_runs(n_jobs, n_shards, reps, ("multiprocess", "inprocess"))
    mp_results = runs["multiprocess"]
    first = mp_results[0]
    n_submitted = first.n_submitted
    max_cpu = max(_best_per_shard(mp_results, "submit_cpu_s"), default=0.0)
    serial_wall = min(r.total_shard_wall_s for r in runs["inprocess"])
    phase_wall = min(r.submit_phase_wall_s for r in mp_results)
    aggregate = n_submitted / max_cpu if max_cpu > 0 else 0.0
    serial = n_submitted / serial_wall if serial_wall > 0 else 0.0
    return {
        "aggregate_jobs_per_s": aggregate,
        "wall_jobs_per_s": n_submitted / phase_wall if phase_wall > 0 else 0.0,
        "inprocess_serial_jobs_per_s": serial,
        "speedup_vs_inprocess": aggregate / serial if serial > 0 else 0.0,
        "n_jobs": n_submitted,
        "n_shards": n_shards,
        "reps": len(mp_results),
        "scheduler": first.fleet.scheduler,
        "process": first.config.process,
        "executor": "multiprocess",
        "max_shard_cpu_s": max_cpu,
        "submit_phase_wall_s": phase_wall,
        "drain_wall_s": min(r.drain_wall_s for r in mp_results),
        "fleet_sha256": first.report.sha256,
    }


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class BenchReport:
    """One harness run: preset, per-scenario results, output location."""

    smoke: bool
    preset: BenchPreset
    scenarios: dict[str, Any]
    path: Optional[Path] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "smoke": self.smoke,
            "python": platform.python_version(),
            "preset": asdict(self.preset),
            "scenarios": self.scenarios,
        }

    def render(self) -> str:
        eng = self.scenarios["engine"]
        lines = [
            f"bench ({'smoke' if self.smoke else 'full'} preset)",
            f"  engine:  {eng['events_per_s']:,.0f} events/s "
            f"({eng['n_events']} events, {eng['compactions']} compactions, "
            f"{eng['wall_s']:.2f}s)",
        ]
        off = self.scenarios["offline"]
        for name, row in off["schedulers"].items():
            lines.append(
                f"  offline {name}: p50 {row['wall_s_p50']:.2f}s, "
                f"p95 {row['wall_s_p95']:.2f}s "
                f"({row['records']} records x {row['reps']} reps, "
                f"{off['n_batches']} batches)"
            )
        for key in ("loadgen", "loadgen_bursty"):
            lg = self.scenarios.get(key)
            if lg is None:
                continue
            lines.append(
                f"  {key} {lg['scheduler']}: {lg['jobs_per_s']:,.0f} jobs/s "
                f"submit ({lg['n_jobs']} jobs via {lg['process']}, quote p50 "
                f"{lg['quote_p50_ms']:.3f}ms, p95 {lg['quote_p95_ms']:.3f}ms)"
            )
        ov = self.scenarios.get("obs_overhead")
        if ov is not None:
            lines.append(
                f"  obs_overhead: {ov['overhead_pct']:+.2f}% "
                f"({ov['n_metric_families']} families, "
                f"{ov['spans_kept']} spans, {ov['n_jobs']} jobs, "
                f"best of {ov['reps']} reps)"
            )
        pc = self.scenarios.get("policy_convergence")
        if pc is not None:
            lines.append(
                f"  policy_convergence: {pc['overhead_pct']:+.2f}% "
                f"({pc['ticks']} ticks, {pc['steps_applied']} steps, "
                f"{pc['n_jobs']} jobs, best of {pc['reps']} reps, "
                f"audit {pc['audit_sha256'][:12]})"
            )
        fl = self.scenarios.get("fleet_loadgen")
        if fl is not None:
            lines.append(
                f"  fleet_loadgen {fl['scheduler']}: "
                f"{fl['aggregate_jobs_per_s']:,.0f} jobs/s aggregate over "
                f"{fl['n_shards']} shards "
                f"({fl['serial_jobs_per_s']:,.0f} jobs/s serial, "
                f"{fl['n_jobs']} jobs via {fl['process']}, "
                f"best of {fl['reps']} reps, sha {fl['fleet_sha256'][:12]})"
            )
        fp = self.scenarios.get("fleet_loadgen_procs")
        if fp is not None:
            lines.append(
                f"  fleet_loadgen_procs {fp['scheduler']}: "
                f"{fp['aggregate_jobs_per_s']:,.0f} jobs/s aggregate over "
                f"{fp['n_shards']} worker processes "
                f"({fp['speedup_vs_inprocess']:.1f}x in-process serial, "
                f"{fp['wall_jobs_per_s']:,.0f} jobs/s phase wall, "
                f"{fp['n_jobs']} jobs, best of {fp['reps']} reps, "
                f"sha {fp['fleet_sha256'][:12]})"
            )
        return "\n".join(lines)


def run_bench(
    smoke: bool = False,
    out_path: "str | Path" = "BENCH_core.json",
    preset: Optional[BenchPreset] = None,
) -> BenchReport:
    """Run every scenario, write the JSON report, return it."""
    if preset is None:
        preset = SMOKE if smoke else FULL
    scenarios = {
        "engine": _engine_scenario(preset.engine_events),
        "offline": _offline_scenario(
            preset.offline_n_batches, preset.offline_reps
        ),
        "loadgen": _loadgen_scenario(preset.loadgen_jobs),
    }
    if preset.loadgen_bursty_jobs > 0:
        scenarios["loadgen_bursty"] = _loadgen_scenario(
            preset.loadgen_bursty_jobs, process="bursty"
        )
    if preset.obs_jobs > 0:
        scenarios["obs_overhead"] = _obs_overhead_scenario(
            preset.obs_jobs, preset.obs_reps
        )
    if preset.policy_jobs > 0:
        scenarios["policy_convergence"] = _policy_convergence_scenario(
            preset.policy_jobs, preset.policy_reps
        )
    if preset.fleet_jobs > 0:
        scenarios["fleet_loadgen"] = _fleet_scenario(
            preset.fleet_jobs, preset.fleet_shards, preset.fleet_reps
        )
    if preset.fleet_procs_jobs > 0:
        scenarios["fleet_loadgen_procs"] = _fleet_procs_scenario(
            preset.fleet_procs_jobs, preset.fleet_shards, preset.fleet_reps
        )
    report = BenchReport(smoke=smoke, preset=preset, scenarios=scenarios)
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    report.path = path
    return report

