"""Scheduler interface and the planning state it reasons over.

The paper's schedulers "only look at the current state of the system to
make decisions on splitting and placement of jobs. Hence they are traffic
oblivious (the estimation models are used to predict the job execution time
and transfer time given the current load in the system)" — Section IV.

:class:`SystemState` is the snapshot a scheduler receives at batch arrival:
*estimated* machine availability (from QRSM estimates of the in-flight
work, never the hidden true durations), pipeline backlogs, and learned
bandwidth estimates. It is also a mutable *planning* object: as a scheduler
assigns jobs within a batch it commits each decision so later jobs in the
same batch see the load the earlier ones will create.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from ..workload.document import Job
from ..common import Placement

__all__ = ["SystemState", "ECSiteState", "Site", "Decision", "BatchPlan", "Scheduler"]


class _SiteRates:
    """Effective transfer rates of an EC site (the primary or an extra one).

    Mixed into :class:`SystemState` and :class:`ECSiteState`, which both
    carry the site fields these read.
    """

    up_threads: int
    down_threads: int
    per_thread_mbps: float
    upload_parallelism: int
    est_up_mbps: float
    est_down_mbps: float

    @property
    def up_rate(self) -> float:
        """Estimated aggregate upload drain rate (MB/s)."""
        cap = self.up_threads * self.per_thread_mbps * max(1, self.upload_parallelism)
        return max(1e-6, min(cap, self.est_up_mbps))

    @property
    def down_rate(self) -> float:
        return max(1e-6, min(self.down_threads * self.per_thread_mbps, self.est_down_mbps))


@dataclass
class ECSiteState(_SiteRates):
    """Estimated snapshot of one *additional* external cloud site.

    The primary EC's state lives in :class:`SystemState`'s flat fields;
    multi-cloud deployments (the paper's "where" question — "one could
    possibly choose from a pool of Cloud Providers at run-time") carry one
    of these per extra site in ``SystemState.extra_sites``.
    :attr:`SystemState.sites` lists every site, primary first.
    """

    name: str
    ec_free: list[float] = field(default_factory=list)
    ec_speed: float = 1.0
    upload_backlog_mb: float = 0.0
    download_backlog_mb: float = 0.0
    est_up_mbps: float = 1.0
    est_down_mbps: float = 1.0
    up_threads: int = 4
    down_threads: int = 4
    per_thread_mbps: float = 0.5
    upload_parallelism: int = 1

    def clone(self) -> "ECSiteState":
        return replace(self, ec_free=list(self.ec_free))


@dataclass
class Decision:
    """One placement decision: the paper's decision variable ``d_i``.

    ``ec_site`` selects which external cloud receives a bursted job: an
    index into ``SystemState.sites`` (0 is the primary site).
    """

    job: Job
    placement: str
    est_proc_time: float
    est_completion: float
    ec_site: int = 0

    @property
    def d(self) -> int:
        """``d_i`` — 0 for IC, 1 for EC (Section II.A)."""
        return 1 if self.placement == Placement.EC else 0


@dataclass
class BatchPlan:
    """A scheduler's output for one batch: decisions in queue order.

    Jobs may differ from the input batch when the scheduler chunks
    (Algorithm 2 "adding them as new jobs in the job-list").
    ``upload_bounds`` carries Algorithm 3's ``(s_bound, m_bound)`` when the
    scheduler wants the environment to (re)configure the size-interval
    upload queues for this batch.
    """

    decisions: list[Decision] = field(default_factory=list)
    upload_bounds: Optional[tuple[float, float]] = None

    @property
    def jobs(self) -> list[Job]:
        return [d.job for d in self.decisions]

    @property
    def n_bursted(self) -> int:
        return sum(d.d for d in self.decisions)


@dataclass
class SystemState(_SiteRates):
    """Estimated system snapshot + in-batch planning ledger.

    Attributes
    ----------
    now:
        Decision instant.
    ic_free / ec_free:
        Per-machine *estimated* instants at which each machine becomes
        available, with all queued work already folded in (list
        scheduling over QRSM estimates).
    ic_speed / ec_speed:
        Machine speed relative to the standard machine.
    upload_backlog_mb / download_backlog_mb:
        MB still to move in each direction (queued + in flight).
    est_up_mbps / est_down_mbps:
        Learned effective bandwidth ``l(t)`` at ``now`` for each direction.
    up_threads / down_threads / per_thread_mbps:
        Current autonomic thread plan; a single transfer moves at most
        ``threads * per_thread_mbps``.
    pending_completions:
        Estimated completion times of every job currently in the system
        (the ``T_i`` pool that seeds the slack of the first new job).
    upload_queue_loads_mb:
        Per-size-interval upload queue loads (``s_up, m_up, l_up``).
    """

    now: float
    ic_free: list[float]
    ec_free: list[float]
    ic_speed: float = 1.0
    ec_speed: float = 1.0
    upload_backlog_mb: float = 0.0
    download_backlog_mb: float = 0.0
    est_up_mbps: float = 1.0
    est_down_mbps: float = 1.0
    up_threads: int = 4
    down_threads: int = 4
    per_thread_mbps: float = 0.35
    #: Number of concurrently transferring upload queues (1 for the plain
    #: FIFO path; 3 under size-interval bandwidth splitting). The backlog
    #: drains at up to ``parallelism * threads * per_thread`` — capped by
    #: the estimated pipe capacity — which is how Algorithm 3's split
    #: queues shorten ``ft^ec`` and unlock extra bursting.
    upload_parallelism: int = 1
    pending_completions: list[float] = field(default_factory=list)
    upload_queue_loads_mb: list[float] = field(default_factory=list)
    #: Optional keyed view of ``pending_completions`` — ``((job_id, sub_id),
    #: est_completion)`` pairs — for consumers that must exclude a specific
    #: job's own contribution (the rescheduling strategies).
    pending_keyed: list[tuple[tuple[int, int], float]] = field(default_factory=list)
    #: Additional external-cloud sites (multi-cloud bursting); the primary
    #: EC site is described by the flat ``ec_*``/``*load*`` fields above.
    extra_sites: list[ECSiteState] = field(default_factory=list)

    def clone(self) -> "SystemState":
        """Independent copy for what-if planning."""
        return replace(
            self,
            ic_free=list(self.ic_free),
            ec_free=list(self.ec_free),
            pending_completions=list(self.pending_completions),
            upload_queue_loads_mb=list(self.upload_queue_loads_mb),
            pending_keyed=list(self.pending_keyed),
            extra_sites=[s.clone() for s in self.extra_sites],
        )

    @property
    def sites(self) -> list[Site]:
        """Every EC site, primary (this state's flat fields) first."""
        return [self, *self.extra_sites]

    # ------------------------------------------------------------------
    # Planning commits
    # ------------------------------------------------------------------
    def commit_ic(self, finish_time: float) -> None:
        """Record an IC assignment: the earliest machine now frees later."""
        idx = min(range(len(self.ic_free)), key=self.ic_free.__getitem__)
        self.ic_free[idx] = finish_time
        self.pending_completions.append(finish_time)

    def commit_ec(
        self,
        job: Job,
        ec_exec_end: float,
        completion: float,
        site: Optional[Site] = None,
    ) -> None:
        """Record an EC assignment: link backlog and EC machine load grow.

        ``site`` is one of :attr:`sites` (default: the primary). Its
        backlogs and machine load grow, while the completion joins this
        state's shared pending pool (slack is queue-global no matter
        where the job bursts).
        """
        s = self if site is None else site
        s.upload_backlog_mb += job.input_mb
        s.download_backlog_mb += job.output_mb
        ec_free = s.ec_free
        if ec_free:
            idx = min(range(len(ec_free)), key=ec_free.__getitem__)
            ec_free[idx] = ec_exec_end
        self.pending_completions.append(completion)


#: One EC site as planning code sees it: the primary is the
#: :class:`SystemState` itself, every extra site an :class:`ECSiteState`.
Site = Union[SystemState, ECSiteState]


class Scheduler(abc.ABC):
    """Common interface of the cloud-bursting schedulers.

    ``plan`` receives the batch *in queue order* and a fresh
    :class:`SystemState`; it must return a :class:`BatchPlan` whose
    decisions are also in queue order (chunks inserted in place).
    Implementations mutate the state as they commit decisions.
    """

    #: Display name used in traces, tables and figures.
    name: str = "scheduler"

    @abc.abstractmethod
    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        """Assign every job (or chunk) in the batch to IC or EC."""

    def plan_online(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        """Online-mode entry point: plan an incrementally arriving group.

        The online broker (:mod:`repro.service`) hands schedulers whatever
        jobs arrived at the current virtual instant — possibly a single
        job — instead of a pre-generated batch. The paper's schedulers are
        traffic-oblivious (they only look at current state), so the default
        simply delegates to :meth:`plan`; this shared path is what makes
        offline replay and online serving produce identical traces.
        """
        return self.plan(jobs, state)

    def wants_size_interval_queues(self) -> bool:
        """Whether the environment should run split upload queues."""
        return False
