"""The complete simulated cloud-bursting system (Fig. 5 architecture).

Wires every substrate together: batch arrivals feed the scheduler
(controller); IC decisions go straight to the internal machine pool; EC
decisions flow through the pipelined path — upload queue(s) over the
fluid uplink, the external machine pool, then the download queue over the
downlink — and finally into the result queue. Learned models (QRSM,
time-of-day bandwidth EWMA, thread tuner) are trained/updated online from
the same observations the paper's autonomic system uses: completed job
runtimes, achieved transfer throughputs and 1 MB probes.

The environment is the only component that knows the *ground truth*
(true processing times, true link capacity); schedulers only ever see the
:class:`repro.core.base.SystemState` snapshot built from estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar, Optional, Sequence, TypeVar

import numpy as np

from ..core.base import BatchPlan, ECSiteState, Scheduler, SystemState
from ..core.estimators import FinishTimeEstimator
from ..core.rescheduling import pick_ec_push, pick_ic_pull
from ..models.bandwidth import DiurnalBandwidthProfile, TimeOfDayBandwidthEstimator
from ..models.qrsm import QuadraticResponseSurface
from ..models.threads import ThreadTuner
from ..workload.document import Job
from ..workload.generator import Batch
from .cluster import Cluster
from .engine import Simulator
from .network import CapacityProcess, FluidLink, ProbeService
from .pipeline import TransferPipeline
from .resources import Machine
from .tracing import JobRecord, Placement, RunTrace

__all__ = ["ECSiteSpec", "SystemConfig", "RunPlugin", "CloudBurstEnvironment", "Session"]

P = TypeVar("P", bound="RunPlugin")


@dataclass(frozen=True, kw_only=True)
class ECSiteSpec:
    """One external cloud site (multi-cloud bursting).

    Every site gets its own machine pool and its own pair of fluid links
    with independent diurnal profiles — each extra site is another
    provider reached over a different path. The primary site's spec is
    derived from :class:`SystemConfig`. Keyword-only: every field names its
    unit (or is dimensionless by convention), and call sites stay
    readable as the config grows.
    """

    name: str
    machines: int = 2
    speed: float = 1.0
    up_base_mbps: float = 4.0
    down_base_mbps: float = 5.0
    peak_hour: float = 4.0

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ValueError("an EC site needs at least one machine")
        if self.up_base_mbps <= 0 or self.down_base_mbps <= 0:
            raise ValueError("site bandwidth must be positive")


@dataclass(frozen=True, kw_only=True)
class SystemConfig:
    """Testbed parameters (defaults mirror Section V.A).

    The paper's testbed: "8 virtual machines forming the internal cloud and
    a maximum of 2 virtual machines forming the external cloud". Bandwidth
    defaults put mean transfer time on the order of mean processing time —
    the regime the whole paper is about.

    Keyword-only: with two dozen knobs, positional construction was an
    accident waiting to happen, and every public float field follows the
    UNI001 unit-suffix convention (``_s``/``_mbps``/``_hour``) or is a
    documented dimensionless quantity (``speed``, ``variation``, ``alpha``).
    """

    ic_machines: int = 8
    ic_speed: float = 1.0
    #: Optional per-machine speeds for a heterogeneous IC (overrides
    #: ic_machines/ic_speed); models mixed generations of printer
    #: controllers. Schedulers plan with the pool's mean speed.
    ic_machine_speeds: tuple[float, ...] = ()
    ec_machines: int = 2
    ec_speed: float = 1.0
    up_base_mbps: float = 4.0
    down_base_mbps: float = 5.0
    bandwidth_variation: float = 0.25
    capacity_epoch_s: float = 20.0
    per_thread_mbps: float = 0.5
    initial_threads: int = 6
    max_threads: int = 8
    probe_interval_s: float = 180.0
    ewma_alpha: float = 0.3
    start_hour: float = 9.0
    seed: int = 12345
    enable_ic_pull: bool = False
    enable_ec_push: bool = False
    ec_push_interval_s: float = 30.0
    #: Additional external clouds beyond the primary one (the "where"
    #: extension); schedulers that understand multiple sites
    #: (:mod:`repro.core.multi_ec`) can address them by index.
    extra_ec_sites: tuple[ECSiteSpec, ...] = ()
    #: Hard cap on simulated events per run — a diverging run (offered load
    #: beyond total capacity forever) fails loudly instead of spinning.
    max_events: int = 5_000_000

    def __post_init__(self) -> None:
        if self.ic_machines < 1 or self.ec_machines < 1:
            raise ValueError("both clouds need at least one machine")
        if self.up_base_mbps <= 0 or self.down_base_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 <= self.start_hour < 24:
            raise ValueError("start_hour must lie in [0, 24)")

    def with_seed(self, seed: int) -> "SystemConfig":
        """This config with a different master seed (shard derivation).

        The fleet's shard manager stamps every partition with a seed
        derived from the run seed via
        :func:`repro.common.substream_seed`; everything else about the
        simulated testbed stays shared.
        """
        return replace(self, seed=seed)


@dataclass(slots=True)
class _JobState:
    """Environment-side bookkeeping for one in-system job.

    Slotted: one instance per in-system job, and the ``build_state`` folds
    touch ``est_proc``/``est_completion`` once per queued job per snapshot.
    """

    job: Job
    record: JobRecord
    est_proc: float
    est_completion: float
    done: bool = False
    site: int = 0  # index into ``env.sites`` of the job's EC site (0 = primary)


@dataclass
class _Site:
    """The runtime stack of one external cloud site.

    Its own capacity processes, fluid links, learned bandwidth and thread
    models, transfer pipelines, probes and machine pool.
    """

    spec: ECSiteSpec
    up_capacity: CapacityProcess
    down_capacity: CapacityProcess
    uplink: FluidLink
    downlink: FluidLink
    up_estimator: TimeOfDayBandwidthEstimator
    down_estimator: TimeOfDayBandwidthEstimator
    up_tuner: ThreadTuner
    down_tuner: ThreadTuner
    upload: TransferPipeline
    download: TransferPipeline
    up_probe: ProbeService
    down_probe: ProbeService
    cluster: Cluster


class RunPlugin:
    """Something that watches (or steers) one environment's run.

    Cost accounting, telemetry, the policy converger, the invariant
    checker, the online broker and a fleet shard's tenant books all ride
    the same lifecycle: constructing a plugin attaches it to
    ``env.plugins``, the environment calls :meth:`on_plan` after every
    scheduler plan, :meth:`on_admit` and :meth:`on_complete` per job unit,
    and :meth:`finalize` once when the run closes — in attach order. A
    non-``None`` :meth:`finalize` block lands in ``trace.metadata[key]``,
    outside every trace digest.

    Subclasses call ``super().__init__(env)`` before scheduling anything,
    so a refused attach leaves the event heap untouched.
    """

    #: The ``trace.metadata`` key of this plugin's :meth:`finalize` block.
    key: ClassVar[Optional[str]] = None

    def __init__(self, env: "CloudBurstEnvironment") -> None:
        if any(type(p) is type(self) for p in env.plugins):
            raise RuntimeError(
                f"{type(self).__name__} already attached to this environment"
            )
        env.plugins.append(self)
        self.env = env

    def on_plan(self, plan: BatchPlan) -> None:
        """A batch was planned (before its decisions are admitted)."""

    def on_admit(self, record: JobRecord) -> None:
        """A job unit was admitted (before it is dispatched)."""

    def on_complete(self, record: JobRecord) -> None:
        """A job unit completed, with its final record."""

    def finalize(self, trace: RunTrace) -> Optional[dict[str, object]]:
        """The run closed; returns this plugin's metadata block, if any."""
        return None


class CloudBurstEnvironment:
    """One runnable instance of the simulated hybrid cloud.

    Instances are cheap to build and share **no mutable state** with one
    another: every RNG, learned model, cluster pool and cache hangs off
    the instance (no module- or class-level mutable containers), so a
    process may hold many environments — the fleet's shard manager builds
    one per partition — and drive them in any interleaving without
    cross-contamination. ``tests/test_environment_isolation.py`` pins
    this with an interleaved-run regression test.
    """

    def __init__(self, config: SystemConfig = SystemConfig()) -> None:
        self.config = config
        self.sim = Simulator(start_time=config.start_hour * 3600.0)
        self.rng = np.random.default_rng(config.seed)

        # --- external clouds: the primary, then each extra site ------------
        # Every site draws its two link seeds and schedules its capacity
        # ticks and probes in this order, primary first.
        primary = ECSiteSpec(
            name="primary", machines=config.ec_machines, speed=config.ec_speed,
            up_base_mbps=config.up_base_mbps, down_base_mbps=config.down_base_mbps,
        )
        self.sites: list[_Site] = [
            self._build_site(index, spec)
            for index, spec in enumerate((primary, *config.extra_ec_sites))
        ]
        # The primary site's components under their established names.
        site = self.sites[0]
        self.up_capacity, self.down_capacity = site.up_capacity, site.down_capacity
        self.uplink, self.downlink = site.uplink, site.downlink
        self.up_estimator, self.down_estimator = site.up_estimator, site.down_estimator
        self.up_tuner, self.down_tuner = site.up_tuner, site.down_tuner
        self.upload, self.download = site.upload, site.download
        self.up_probe, self.down_probe = site.up_probe, site.down_probe
        self.ec = site.cluster

        # --- internal cloud and processing-time model -----------------------
        self.qrsm = QuadraticResponseSurface()
        self.estimator = FinishTimeEstimator(self.qrsm)
        self.ic = Cluster(
            self.sim, "ic", config.ic_machines, config.ic_speed,
            speeds=config.ic_machine_speeds or None,
        )
        #: Planning speed the schedulers see for the IC (mean over a
        #: heterogeneous pool).
        self._ic_plan_speed = self.ic.mean_speed

        # --- run bookkeeping ----------------------------------------------
        self._states: dict[tuple[int, int], _JobState] = {}
        #: Incomplete jobs only, in admission order. ``build_state`` walks
        #: this instead of ``_states`` so a long-lived online broker stays
        #: O(jobs in system) per snapshot rather than O(jobs ever admitted).
        self._open: dict[tuple[int, int], _JobState] = {}
        #: Incrementally maintained subset of ``_open``: EC-placed jobs in
        #: the same relative order. ``build_state`` reads this instead of
        #: filtering ``_open`` per snapshot; the commit points that change
        #: membership (:meth:`_admit`, :meth:`_complete`, the rescheduling
        #: strategies) keep it in sync, so it is never stale.
        self._open_ec: dict[tuple[int, int], _JobState] = {}
        #: Per-machine cache of the busy-machine availability estimate
        #: (:meth:`_machine_est_free`): maps machine -> (running item,
        #: absolute est-free instant). The dirty flag is the running item
        #: itself — a machine's estimate only changes when it starts a new
        #: item, so entries are reused across snapshots between events.
        self._free_cache: dict[Machine, tuple[Job, float]] = {}
        self._remaining = 0
        self._batches_arrived = 0
        self._trace: Optional[RunTrace] = None
        self._scheduler: Optional[Scheduler] = None
        self._t0 = self.sim.now
        #: Attached :class:`RunPlugin` instances, in attach order.
        self.plugins: list[RunPlugin] = []

        if config.enable_ic_pull:
            self.ic.on_idle = self._on_ic_idle

        # Opt-in runtime checking for the whole suite: REPRO_INVARIANTS=1
        # arms every environment at construction (deferred import — the
        # analysis package is a consumer of this module, not a dependency).
        from ..analysis.invariants import invariants_enabled

        if invariants_enabled():
            from ..analysis.invariants import install_invariants

            install_invariants(self)

    def _build_site(self, index: int, spec: ECSiteSpec) -> _Site:
        """Stand up the full network+compute stack for the EC site ``index``.

        The primary (index 0) names its components ``uplink``, ``upload``,
        ``ec`` and so on; an extra site suffixes each with ``-<name>``.
        """
        config = self.config
        suffix = f"-{spec.name}" if index else ""
        up_rng = np.random.default_rng(self.rng.integers(2**63))
        down_rng = np.random.default_rng(self.rng.integers(2**63))
        up_capacity = CapacityProcess(
            self.sim,
            DiurnalBandwidthProfile(base_mbps=spec.up_base_mbps, peak_hour=spec.peak_hour),
            up_rng,
            variation=config.bandwidth_variation, epoch_s=config.capacity_epoch_s,
        )
        down_capacity = CapacityProcess(
            self.sim,
            DiurnalBandwidthProfile(base_mbps=spec.down_base_mbps, peak_hour=spec.peak_hour),
            down_rng,
            variation=config.bandwidth_variation, epoch_s=config.capacity_epoch_s,
        )
        uplink = FluidLink(
            self.sim, up_capacity, config.per_thread_mbps, name=f"uplink{suffix}"
        )
        downlink = FluidLink(
            self.sim, down_capacity, config.per_thread_mbps, name=f"downlink{suffix}"
        )
        up_estimator = TimeOfDayBandwidthEstimator(
            alpha=config.ewma_alpha, prior_mbps=spec.up_base_mbps * 0.8
        )
        down_estimator = TimeOfDayBandwidthEstimator(
            alpha=config.ewma_alpha, prior_mbps=spec.down_base_mbps * 0.8
        )
        up_tuner = ThreadTuner(
            initial_threads=config.initial_threads, max_threads=config.max_threads
        )
        down_tuner = ThreadTuner(
            initial_threads=config.initial_threads, max_threads=config.max_threads
        )
        return _Site(
            spec=spec,
            up_capacity=up_capacity,
            down_capacity=down_capacity,
            uplink=uplink,
            downlink=downlink,
            up_estimator=up_estimator,
            down_estimator=down_estimator,
            up_tuner=up_tuner,
            down_tuner=down_tuner,
            upload=TransferPipeline(
                self.sim, uplink, up_tuner, up_estimator, name=f"upload{suffix}"
            ),
            download=TransferPipeline(
                self.sim, downlink, down_tuner, down_estimator, name=f"download{suffix}"
            ),
            up_probe=ProbeService(
                self.sim, uplink, up_estimator,
                interval_s=config.probe_interval_s, tuner=up_tuner,
            ),
            down_probe=ProbeService(
                self.sim, downlink, down_estimator,
                interval_s=config.probe_interval_s, tuner=down_tuner,
            ),
            cluster=Cluster(self.sim, f"ec{suffix}", spec.machines, spec.speed),
        )

    # ------------------------------------------------------------------
    # Model training
    # ------------------------------------------------------------------
    def pretrain_qrsm(self, features, observed_times) -> None:
        """Fit the QRSM on historical production data (Section III.A.1)."""
        self.qrsm.fit(features, observed_times)

    # ------------------------------------------------------------------
    # State snapshot for the scheduler
    # ------------------------------------------------------------------
    def build_state(self) -> SystemState:
        """Estimate-only snapshot of the current system (see module doc)."""
        now = self.sim.now
        states = self._states
        pending_keyed: list[tuple[tuple[int, int], float]] = []
        pending_append = pending_keyed.append

        # IC machine availability: estimated remaining time of running jobs.
        machine_est_free = self._machine_est_free
        ic_free = []
        for machine in self.ic.machines:
            free = machine_est_free(machine, machine.speed, now)
            ic_free.append(free)
            item = machine.current_item
            if item is not None:
                pending_append((item.key, free))
        # Fold queued IC work (in FCFS order) onto the machine estimates.
        # ``index(min(...))`` picks the first machine with the minimal
        # estimate — the same index the keyed ``min(range(...))`` fold
        # chose — with both scans in C.
        ic_plan_speed = self._ic_plan_speed
        for job in self.ic.queued_items():
            # Deep queues make this the hottest fold in the codebase (one
            # iteration per queued job per snapshot): one ``key`` property
            # call per job, and ``min`` doubles as the subscript value.
            key = job.key
            st = states[key]
            free = min(ic_free)
            idx = ic_free.index(free)
            finish = (free if free > now else now) + st.est_proc / ic_plan_speed
            ic_free[idx] = finish
            st.est_completion = finish  # refresh the stale planning estimate
            pending_append((key, finish))

        # Every incomplete EC-side job contributes its (possibly stale)
        # planning-time completion estimate to the slack pool. ``_open_ec``
        # is the incrementally maintained EC subset of ``_open``.
        for key, st in self._open_ec.items():
            pending_append((key, st.est_completion))

        primary, *extra = self.sites
        return SystemState(
            now=now,
            ic_free=ic_free,
            ic_speed=ic_plan_speed,
            **self._site_snapshot(primary, now),
            pending_completions=[t for _, t in pending_keyed],
            upload_queue_loads_mb=primary.upload.queue_loads_mb(),
            pending_keyed=pending_keyed,
            extra_sites=[
                ECSiteState(name=site.spec.name, **self._site_snapshot(site, now))
                for site in extra
            ],
        )

    def _site_snapshot(self, site: _Site, now: float) -> dict[str, Any]:
        """One EC site's estimated state, as ``SystemState``/``ECSiteState`` fields."""
        return dict(
            ec_free=self._ec_free(site, now),
            ec_speed=site.spec.speed,
            upload_backlog_mb=site.upload.backlog_mb,
            download_backlog_mb=site.download.backlog_mb,
            est_up_mbps=site.up_estimator.estimate(now),
            est_down_mbps=site.down_estimator.estimate(now),
            up_threads=site.up_tuner.threads_for(now),
            down_threads=site.down_tuner.threads_for(now),
            per_thread_mbps=self.config.per_thread_mbps,
            upload_parallelism=len(site.upload.queues),
        )

    def _ec_free(self, site: _Site, now: float) -> list[float]:
        """Estimated machine availability of one EC pool, its queue folded in."""
        speed = site.spec.speed
        states = self._states
        machine_est_free = self._machine_est_free
        ec_free = [machine_est_free(machine, speed, now) for machine in site.cluster.machines]
        for job in site.cluster.queued_items():
            free = min(ec_free)
            idx = ec_free.index(free)
            ec_free[idx] = (free if free > now else now) + states[job.key].est_proc / speed
        return ec_free

    def _machine_est_free(self, machine: Machine, speed: float, now: float) -> float:
        item = machine.current_item
        if item is None:
            return now
        cached = self._free_cache.get(machine)
        if cached is not None and cached[0] is item:
            base = cached[1]
        else:
            st = self._states[item.key]
            started = st.record.exec_start
            if started is None:
                # Not yet stamped (dispatch in progress): the estimate
                # depends on ``now``, so it must not be cached.
                return max(now, now + st.est_proc / speed)
            base = started + st.est_proc / speed
            self._free_cache[machine] = (item, base)
        return base if base > now else now

    # ------------------------------------------------------------------
    # Run orchestration
    # ------------------------------------------------------------------
    def _begin_trace(self, scheduler: Scheduler, arrival_time: float) -> None:
        """Shared offline/online run setup; single-use guard included."""
        if self._trace is not None:
            raise RuntimeError("environment instances are single-use; build a new one")
        self._scheduler = scheduler
        self._trace = RunTrace(
            scheduler_name=scheduler.name,
            ic_machines=self.ic.n_machines,
            ec_machines=sum(site.spec.machines for site in self.sites),
            arrival_time=arrival_time,
        )
        if scheduler.wants_size_interval_queues():
            # Bounds are refreshed per batch; start with a neutral 3-way
            # split over the workload's size range.
            self.upload.set_size_bounds(100.0, 200.0)
        if self.config.enable_ec_push:
            self.sim.schedule(self.config.ec_push_interval_s, self._ec_push_tick)

    def _drain(self, total_batches: int) -> None:
        """Step until every batch has arrived and every unit completed.

        Probes tick forever, so "heap empty" never terminates a healthy run.
        """
        while self._remaining > 0 or self._batches_arrived < total_batches:
            if not self.sim.step():
                raise RuntimeError("event heap drained with jobs outstanding")
            if self.sim.events_processed > self.config.max_events:
                raise RuntimeError(
                    f"exceeded max_events={self.config.max_events}; "
                    "offered load likely exceeds system capacity"
                )

    def _finalize_trace(self, n_batches: int) -> RunTrace:
        trace = self._trace
        trace.end_time = self.sim.now
        trace.ic_busy_time = self.ic.total_busy_time
        # Primary plus the extra sites' sum: the float association every
        # pinned digest was taken with.
        busy = [site.cluster.total_busy_time for site in self.sites]
        trace.ec_busy_time = busy[0] + sum(busy[1:])
        trace.bandwidth_samples = list(self.up_estimator.samples)
        trace.records.sort(key=lambda r: (r.job_id, r.sub_id))
        trace.metadata.update(
            {
                "config_seed": self.config.seed,
                "bandwidth_variation": self.config.bandwidth_variation,
                "n_batches": n_batches,
                "up_probes": self.up_probe.n_probes,
            }
        )
        for plugin in self.plugins:
            block = plugin.finalize(trace)
            if block is not None:
                trace.metadata[plugin.key] = block
        return trace

    def plugin(self, cls: type[P]) -> Optional[P]:
        """The attached plugin of type ``cls``, if any."""
        for plugin in self.plugins:
            if isinstance(plugin, cls):
                return plugin
        return None

    def session(self, scheduler: Scheduler) -> "Session":
        """Open the unified driving :class:`Session` for this environment.

        One entry point for both execution styles::

            # offline: replay a pre-generated workload
            with env.session(scheduler) as s:
                trace = s.run_batches(batches)

            # online: jobs pushed against the advancing virtual clock
            with env.session(scheduler) as s:
                s.submit(jobs, at=0.0)
                s.submit(more_jobs, at=12.5)
            trace = s.trace

        :meth:`run` is a thin wrapper over this.
        """
        return Session(self, scheduler)

    def run(self, batches: Sequence[Batch], scheduler: Scheduler) -> RunTrace:
        """Simulate the whole workload under ``scheduler``; returns the trace."""
        with self.session(scheduler) as s:
            return s.run_batches(batches)

    @property
    def jobs_in_system(self) -> int:
        """Number of admitted-but-incomplete jobs (broker backpressure)."""
        return self._remaining

    @property
    def origin(self) -> float:
        """Absolute simulation instant of workload time zero.

        Workload objects carry arrival times relative to this origin (the
        configured ``start_hour``); the online broker maps them onto the
        simulator's absolute axis with ``origin + arrival_time``.
        """
        return self._t0

    def record_for(self, key: tuple[int, int]) -> JobRecord:
        """The live :class:`JobRecord` of an admitted unit (broker use)."""
        return self._states[key].record

    # ------------------------------------------------------------------
    # Batch arrival -> scheduling -> dispatch
    # ------------------------------------------------------------------
    def _on_batch_arrival(self, batch: Batch) -> None:
        self._batches_arrived += 1
        self._handle_batch(batch)

    def _handle_batch(
        self, batch: Batch, state: Optional[SystemState] = None
    ) -> BatchPlan:
        if state is None:
            state = self.build_state()
        plan = self._scheduler.plan_online(list(batch.jobs), state)
        for plugin in self.plugins:
            plugin.on_plan(plan)
        if plan.upload_bounds is not None:
            self.upload.set_size_bounds(*plan.upload_bounds)
        for decision in plan.decisions:
            self._admit(decision.job, batch, decision.placement,
                        decision.est_proc_time, decision.est_completion,
                        ec_site=decision.ec_site)
        return plan

    def _admit(
        self, job: Job, batch: Batch, placement: str,
        est_proc: float, est_completion: float, ec_site: int = 0,
    ) -> None:
        if not 0 <= ec_site < len(self.sites):
            raise ValueError(f"no EC site with index {ec_site}")
        record = JobRecord(
            job_id=job.job_id,
            batch_id=batch.batch_id,
            arrival_time=self._t0 + job.arrival_time,
            input_mb=job.input_mb,
            output_mb=job.output_mb,
            placement=placement,
            sub_id=job.sub_id,
            parent_id=job.parent_id,
            est_proc_time=est_proc,
            true_proc_time=job.true_proc_time,
            schedule_time=self.sim.now,
        )
        st = _JobState(
            job=job, record=record, est_proc=est_proc,
            est_completion=est_completion, site=ec_site,
        )
        self._states[job.key] = st
        self._open[job.key] = st
        if placement == Placement.EC:
            self._open_ec[job.key] = st
        self._trace.records.append(record)
        self._remaining += 1
        for plugin in self.plugins:
            plugin.on_admit(record)
        if placement == Placement.IC:
            self._dispatch_ic(job)
        else:
            self._dispatch_ec(job)

    # ------------------------------------------------------------------
    # IC path
    # ------------------------------------------------------------------
    def _dispatch_ic(self, job: Job) -> None:
        self.ic.submit(
            job, job.true_proc_time, self._on_ic_done, on_start=self._on_exec_start
        )

    def _on_exec_start(self, job: Job, machine: Machine) -> None:
        record = self._states[job.key].record
        record.exec_start = self.sim.now
        record.machine = machine.name

    def _on_ic_done(self, job: Job, machine: Machine) -> None:
        st = self._states[job.key]
        st.record.exec_end = self.sim.now
        st.record.completion_time = self.sim.now
        self._observe_runtime(job, st, machine.speed)
        self._complete(st)

    # ------------------------------------------------------------------
    # EC path: upload -> execute -> download
    # ------------------------------------------------------------------
    def _dispatch_ec(self, job: Job) -> None:
        site = self.sites[self._states[job.key].site]
        cluster = site.cluster

        def on_start(payload: Job) -> None:
            rec = self._states[payload.key].record
            rec.upload_start = self.sim.now

        def on_uploaded(payload: Job) -> None:
            rec = self._states[payload.key].record
            rec.upload_end = self.sim.now
            rec.upload_queue = item.queue_name or None
            cluster.submit(
                payload,
                payload.true_proc_time,
                self._on_ec_exec_done,
                on_start=self._on_exec_start,
            )

        item = site.upload.enqueue(
            job, job.input_mb, on_start=on_start, on_complete=on_uploaded
        )

    def _on_ec_exec_done(self, job: Job, machine: Machine) -> None:
        st = self._states[job.key]
        st.record.exec_end = self.sim.now
        self._observe_runtime(job, st, machine.speed)

        def on_start(payload: Job) -> None:
            self._states[payload.key].record.download_start = self.sim.now

        def on_downloaded(payload: Job) -> None:
            rec = self._states[payload.key].record
            rec.download_end = self.sim.now
            rec.completion_time = self.sim.now
            self._complete(self._states[payload.key])

        self.sites[st.site].download.enqueue(
            job, job.output_mb, on_start=on_start, on_complete=on_downloaded
        )

    # ------------------------------------------------------------------
    # Completion & learning
    # ------------------------------------------------------------------
    def _observe_runtime(self, job: Job, st: _JobState, machine_speed: float) -> None:
        """Feed the observed standard-machine runtime back to the QRSM.

        A machine of speed ``v`` ran the job for ``true/v`` wall seconds;
        the standard-machine-equivalent observation is the wall time times
        ``v`` — i.e. the true standard time, noise included. Uses the
        *actual executing machine's* speed (pools may be heterogeneous).
        """
        if st.record.exec_start is None or st.record.exec_end is None:
            return
        observed = (st.record.exec_end - st.record.exec_start) * machine_speed
        if observed > 0:
            self.qrsm.observe(job.features, observed)

    def _complete(self, st: _JobState) -> None:
        st.done = True
        self._remaining -= 1
        self._open.pop(st.job.key, None)
        self._open_ec.pop(st.job.key, None)
        for plugin in self.plugins:
            plugin.on_complete(st.record)

    # ------------------------------------------------------------------
    # Rescheduling strategies (Section IV.D, optional)
    # ------------------------------------------------------------------
    def _on_ic_idle(self, cluster: Cluster) -> None:
        if cluster.queue_length > 0 or cluster.idle_machines == 0:
            return
        waiting = [
            item.payload
            for queue in self.upload.queues
            for item in queue.items
        ]
        if not waiting:
            return
        est_completions = {j.key: self._states[j.key].est_completion for j in waiting}
        est_procs = {j.key: self._states[j.key].est_proc for j in waiting}
        candidate = pick_ic_pull(
            waiting, est_completions, est_procs, self.sim.now, self._ic_plan_speed
        )
        if candidate is None:
            return
        job = candidate.job
        if not self.upload.cancel(job):
            return
        st = self._states[job.key]
        st.record.placement = Placement.IC
        st.record.rescheduled = True
        st.est_completion = candidate.est_completion
        self._open_ec.pop(job.key, None)
        self._dispatch_ic(job)

    def _ec_push_tick(self) -> None:
        self.sim.schedule(self.config.ec_push_interval_s, self._ec_push_tick)
        if not self.upload.idle:
            return
        waiting = list(self.ic.queued_items())
        if not waiting:
            return
        state = self.build_state()
        candidate = pick_ec_push(waiting, self.estimator, state)
        if candidate is None:
            return
        job = candidate.job
        if not self.ic.cancel(job):
            return
        st = self._states[job.key]
        st.record.placement = Placement.EC
        st.record.rescheduled = True
        st.est_completion = candidate.est_completion
        # An IC job turning EC re-enters the pending pool at its original
        # admission position, so rebuild the EC subset in ``_open`` order.
        self._open_ec = {
            key: s
            for key, s in self._open.items()
            if s.record.placement == Placement.EC
        }
        self._dispatch_ec(job)


class Session:
    """Unified offline/online driving handle over one environment.

    A session owns the run lifecycle of both offline batch replay
    (``CloudBurstEnvironment.run``) and online serving: it begins the
    trace at construction, accepts work either as one pre-generated batch
    sequence (:meth:`run_batches`) or as incremental submissions against
    the advancing virtual clock (:meth:`submit`), and finalises exactly
    once (:meth:`finish`, or implicitly on clean ``with`` exit). Like the
    environment it drives, a session is single-use.

    The two styles produce trace-identical results for the same workload
    (pinned by ``tests/test_service.py``): submissions take the same state
    snapshot, scheduler entry point and dispatch path as a batch arrival.
    """

    def __init__(self, env: CloudBurstEnvironment, scheduler: Scheduler) -> None:
        env._begin_trace(scheduler, env.sim.now)
        self.env = env
        self.scheduler = scheduler
        self._result: Optional[RunTrace] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual-clock instant (absolute simulation seconds)."""
        return self.env.sim.now

    @property
    def finished(self) -> bool:
        return self._result is not None

    @property
    def trace(self) -> RunTrace:
        """The completed :class:`RunTrace`; available once finished."""
        if self._result is None:
            raise RuntimeError("session not finished yet; call finish()")
        return self._result

    # ------------------------------------------------------------------
    def arrive_at(self, at: Optional[float]) -> None:
        """Play every simulation event preceding workload instant ``at``.

        ``at`` is in workload-relative seconds (offset from
        :attr:`CloudBurstEnvironment.origin`); ``None`` stays at the
        current virtual instant. The clock never runs backwards, so an
        instant already passed raises ``ValueError``. The boundary is
        exclusive (see :meth:`repro.sim.engine.Simulator.run_until` for
        the online tie-break rationale).
        """
        if at is None:
            return
        env = self.env
        t = env._t0 + at
        if t < env.sim.now - 1e-12:
            raise ValueError(
                f"submission at t={t} behind the virtual clock ({env.sim.now})"
            )
        if t > env.sim.now:
            env.sim.run_until(t)

    def submit(
        self,
        jobs: Sequence[Job],
        at: Optional[float] = None,
        batch_id: Optional[int] = None,
        state: Optional[SystemState] = None,
    ) -> BatchPlan:
        """Plan and dispatch jobs arriving now (or at workload time ``at``).

        ``at`` is in workload-relative seconds (offset from
        :attr:`CloudBurstEnvironment.origin`); when given, the session
        first plays all simulation events preceding that instant
        (:meth:`arrive_at`). ``None`` submits at the current virtual
        instant.

        ``state`` lets a caller that already built a snapshot *at this
        same instant with no intervening events* (the broker quotes
        against one) pass it in instead of paying for a second,
        bit-identical rebuild.

        Equivalent to one offline batch arrival: the same state snapshot,
        the same scheduler entry point, the same dispatch path — which is
        what makes offline replay and online serving traces match.
        """
        self._check_open()
        self.arrive_at(at)
        env = self.env
        if batch_id is None:
            batch_id = env._batches_arrived
        if env._batches_arrived == 0:
            env._trace.arrival_time = env.sim.now
        batch = Batch(
            batch_id=batch_id,
            arrival_time=env.sim.now - env._t0,
            jobs=list(jobs),
        )
        env._batches_arrived += 1
        return env._handle_batch(batch, state=state)

    def run_batches(self, batches: Sequence[Batch]) -> RunTrace:
        """Offline mode: pre-schedule every batch arrival, drain, finalise.

        Arrival events are scheduled before the event loop starts, so they
        carry lower sequence numbers than anything the running simulation
        produces — the documented FIFO tie-break that online submission
        reproduces via the exclusive ``run_until`` boundary.
        """
        self._check_open()
        env = self.env
        env._trace.arrival_time = env._t0 + (
            batches[0].arrival_time if batches else 0.0
        )
        for batch in batches:
            env.sim.schedule_at(
                env._t0 + batch.arrival_time, env._on_batch_arrival, batch
            )
        env._drain(len(batches))
        self._result = env._finalize_trace(len(batches))
        return self._result

    def finish(self) -> RunTrace:
        """Drain all in-flight work and return the completed trace."""
        self._check_open()
        env = self.env
        env._drain(env._batches_arrived)
        self._result = env._finalize_trace(env._batches_arrived)
        return self._result

    def _check_open(self) -> None:
        if self._result is not None:
            raise RuntimeError("session already finished; build a new environment")

    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Clean exit finalises an unfinished session; an exception leaves
        # the partial state inspectable instead of masking the error with
        # a drain that would likely fail too.
        if exc_type is None and self._result is None:
            self.finish()
        return False
