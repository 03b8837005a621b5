"""Open-loop heavy-traffic load driver for the broker.

Generates an *open-loop* arrival stream — arrivals keep coming whether or
not the system keeps up, which is what makes overload and backpressure
observable — and pushes it through a :class:`~repro.service.broker.
BurstBroker`, measuring what an operator would ask of a real service:

* sustained submission throughput (jobs per wall-clock second through the
  quote/admit/dispatch path),
* quote latency percentiles (wall-clock cost of one submission decision),
* admission outcomes (rejection rate, by reason) and streaming SLA
  attainment for whatever was admitted.

Two arrival processes, per the heavy-traffic framing in the related work
(transient-aware placement under bursty arrivals):

* ``"poisson"`` — memoryless single-job arrivals at ``rate_per_s``;
* ``"bursty"`` — compound Poisson: bursts arrive with exponential gaps and
  carry ``1 + Poisson(mean_burst_jobs - 1)`` jobs each, same long-run job
  rate, much nastier short-term load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from ..core.base import Scheduler
from ..metrics.streaming import StreamingSLAStats
from ..sim.environment import CloudBurstEnvironment
from ..workload.distributions import Bucket
from ..workload.generator import WorkloadGenerator
from ..workload.document import Job
from .broker import BurstBroker
from .policy import SLAPolicy

__all__ = [
    "LoadGenConfig",
    "LoadGenResult",
    "SubmissionTiming",
    "arrival_schedule",
    "generate_arrivals",
    "drive_arrivals",
    "run_load",
]


@dataclass(frozen=True, kw_only=True)
class LoadGenConfig:
    """Knobs of one load-generation run.

    Keyword-only since PR 8 (the API-redesign convention every config in
    the tree follows): positional construction fails loudly rather than
    silently binding the wrong knob.
    """

    n_jobs: int = 100_000
    rate_per_s: float = 50.0
    process: str = "poisson"  # "poisson" | "bursty"
    mean_burst_jobs: float = 10.0
    bucket: Bucket = Bucket.UNIFORM
    seed: int = 2024
    first_arrival_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be positive")
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.process not in ("poisson", "bursty"):
            raise ValueError("process must be 'poisson' or 'bursty'")
        if self.mean_burst_jobs < 1:
            raise ValueError("mean_burst_jobs must be >= 1")
        if self.first_arrival_s < 0:
            raise ValueError("first_arrival_s cannot be negative")


def arrival_schedule(config: LoadGenConfig) -> Iterator[tuple[float, int]]:
    """Yield ``(arrival_time_s, n_jobs)`` groups until ``n_jobs`` jobs are out.

    The open-loop stream itself, without job bodies: every driver — the
    single broker, each fleet shard, the HTTP client — submits exactly
    this sequence. Arrival times are workload-relative (the
    :class:`Batch` convention).
    """
    rng = np.random.default_rng(config.seed ^ 0x5EED)
    t = config.first_arrival_s
    emitted = 0
    while emitted < config.n_jobs:
        if config.process == "poisson":
            size = 1
            gap_mean = 1.0 / config.rate_per_s
        else:
            size = 1 + int(rng.poisson(config.mean_burst_jobs - 1.0))
            gap_mean = config.mean_burst_jobs / config.rate_per_s
        if emitted:
            t += float(rng.exponential(gap_mean))
        size = min(size, config.n_jobs - emitted)
        emitted += size
        yield t, size


def generate_arrivals(
    config: LoadGenConfig,
    generator: Optional[WorkloadGenerator] = None,
) -> Iterator[tuple[float, list[Job]]]:
    """Yield ``(arrival_time_s, jobs)``: :func:`arrival_schedule` with bodies.

    Job synthesis reuses the paper's workload generator so the load driver
    stresses the broker with the same document population the offline
    experiments use.
    """
    gen = generator if generator is not None else WorkloadGenerator(
        bucket=config.bucket, seed=config.seed
    )
    emitted = 0
    for group_id, (t, size) in enumerate(arrival_schedule(config)):
        yield t, [
            gen.sample_job(emitted + k + 1, batch_id=group_id, arrival_time=t)
            for k in range(size)
        ]
        emitted += size


@dataclass
class SubmissionTiming:
    """Wall-clock accounting of one driven arrival stream.

    The measured unit is the *submission round trip* — run_until event
    playback, state snapshot, quoting, admission, dispatch — because that
    whole path is what a caller of a real service waits on. The group
    iterator's own work (single-broker job synthesis) stays off the clock.
    """

    n_submitted: int = 0
    n_groups: int = 0
    #: Groups refused whole (a fleet tenant's quota spent), not timed.
    n_refused: int = 0
    submit_wall_s: float = 0.0
    #: CPU seconds this process spent inside submit() round trips. On a
    #: loaded machine wall > cpu; per-worker cpu is what one shard would
    #: cost on its own core, which is what the fleet's modeled aggregate
    #: figure needs when workers timeshare fewer cores than shards.
    submit_cpu_s: float = 0.0


def drive_arrivals(
    groups: Iterable[tuple[int, Callable[[], object]]],
    refused: type[Exception] | tuple[type[Exception], ...] = (),
    latency_s: Optional[list[float]] = None,
) -> SubmissionTiming:
    """Submit an arrival stream group by group, timing each round trip.

    Each group is ``(n_jobs, submit)``; calling ``submit()`` performs the
    group's one submission. Both the single-broker driver
    (:func:`run_load`) and the fleet's per-shard driver
    (:mod:`repro.fleet.loadgen`) share this loop so their throughput
    figures measure the same thing. A ``submit`` that raises one of
    ``refused`` counts in ``n_refused`` and submitted nothing.
    Each submitted job's quote latency, its group's wall cost divided by
    the group's size, is appended to ``latency_s`` when one is given;
    only :func:`run_load` reports it, so fleet shards keep no per-job
    list to ship home.
    """
    timing = SubmissionTiming()
    for n_jobs, submit in groups:
        t0 = time.perf_counter()  # repro: allow[DET001] quote-latency meter
        c0 = time.process_time()  # repro: allow[DET001] quote-latency meter
        try:
            submit()
        except refused:
            timing.n_refused += 1
            continue
        group_s = time.perf_counter() - t0  # repro: allow[DET001] quote-latency meter
        timing.submit_cpu_s += time.process_time() - c0  # repro: allow[DET001] quote-latency meter
        timing.submit_wall_s += group_s
        if latency_s is not None:
            latency_s.extend([group_s / n_jobs] * n_jobs)
        timing.n_submitted += n_jobs
        timing.n_groups += 1
    return timing


@dataclass
class LoadGenResult:
    """Operator-facing summary of one load run."""

    config: LoadGenConfig
    scheduler_name: str
    stats: StreamingSLAStats
    n_submitted: int = 0
    n_groups: int = 0
    submit_wall_s: float = 0.0
    drain_wall_s: float = 0.0
    sim_horizon_s: float = 0.0
    quote_latency_s: np.ndarray = field(default_factory=lambda: np.array([]))

    @property
    def jobs_per_s(self) -> float:
        """Sustained submission throughput through quote+admit+dispatch."""
        if self.submit_wall_s <= 0:
            return 0.0
        return self.n_submitted / self.submit_wall_s

    def latency_percentile_ms(self, q: float) -> float:
        if self.quote_latency_s.size == 0:
            return float("nan")
        return float(np.percentile(self.quote_latency_s, q) * 1e3)

    @property
    def mean_latency_ms(self) -> float:
        if self.quote_latency_s.size == 0:
            return float("nan")
        return float(self.quote_latency_s.mean() * 1e3)

    def render(self) -> str:
        c = self.config
        lines = [
            f"load driver: {self.n_submitted} jobs via {c.process} arrivals "
            f"@ {c.rate_per_s:g}/s ({c.bucket.value} bucket, "
            f"scheduler {self.scheduler_name})",
            f"throughput: {self.jobs_per_s:,.0f} jobs/s sustained "
            f"({self.submit_wall_s:.2f}s submitting, "
            f"{self.drain_wall_s:.2f}s draining, "
            f"{self.sim_horizon_s:,.0f}s simulated)",
            f"quote latency: mean {self.mean_latency_ms:.3f}ms, "
            f"p50 {self.latency_percentile_ms(50):.3f}ms, "
            f"p99 {self.latency_percentile_ms(99):.3f}ms",
        ]
        lines.append(self.stats.render())
        return "\n".join(lines)


def run_load(
    env: CloudBurstEnvironment,
    scheduler: Scheduler,
    policy: SLAPolicy,
    config: LoadGenConfig,
) -> LoadGenResult:
    """Drive one open-loop load run through a fresh broker session.

    Per-job quote latency is the wall-clock cost of the group's submission
    divided by the group size — run_until event playback, state snapshot,
    quoting, admission and dispatch included, since that whole path is
    what a caller waits on. ``submit_wall_s`` sums exactly those
    per-group submission costs: synthesising the jobs themselves is an
    artifact of the driver, not part of the quote/admit/dispatch path a
    real service performs, so it is kept off the clock.
    """
    gen = WorkloadGenerator(bucket=config.bucket, seed=config.seed)
    env.pretrain_qrsm(*gen.sample_training_set(400))
    stats = StreamingSLAStats(reservoir_seed=config.seed)
    broker = BurstBroker(env, scheduler, policy=policy, stats=stats)
    result = LoadGenResult(
        config=config, scheduler_name=scheduler.name, stats=stats
    )

    latency_s: list[float] = []
    timing = drive_arrivals(
        (
            (len(jobs), partial(broker.submit, jobs, arrival_time=arrival_time))
            for arrival_time, jobs in generate_arrivals(config, generator=gen)
        ),
        latency_s=latency_s,
    )
    result.n_submitted = timing.n_submitted
    result.n_groups = timing.n_groups
    result.submit_wall_s = timing.submit_wall_s

    t0 = time.perf_counter()  # repro: allow[DET001] drain-time meter
    trace = broker.finish()
    result.drain_wall_s = time.perf_counter() - t0  # repro: allow[DET001] drain-time meter
    result.sim_horizon_s = trace.end_time - env.origin
    result.quote_latency_s = np.array(latency_s)
    return result
