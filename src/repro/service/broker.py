"""The online cloud-bursting broker.

Where :mod:`repro.experiments.runner` *replays* a pre-generated workload,
the broker *serves* one: jobs are pushed in one submission at a time
against a monotonically advancing virtual clock, and each arrival is
quoted, admitted (or refused) and dispatched immediately — the "when a job
arrives, decide now" loop the paper's autonomic schedulers actually live
in.

One submission runs four steps:

1. **Advance** — :meth:`Simulator.run_until` plays every simulation event
   that precedes the arrival instant (transfers completing, machines
   freeing, probes, capacity epochs), so the quote sees the system as it
   is *at* arrival. Events scheduled exactly at the arrival instant stay
   pending and fire after dispatch — the same tie-break the offline runner
   gives its pre-scheduled batch-arrival events, which is what makes
   offline replay through the broker trace-identical (see
   ``tests/test_service.py``).
2. **Quote** — estimated completion and slack margin from the learned
   models (:mod:`repro.service.quotes`).
3. **Admit** — the configured :class:`~repro.service.policy.SLAPolicy`
   decides accept / accept-degraded / reject; rejected jobs never touch
   the simulated system.
4. **Dispatch** — admitted jobs go to the scheduler through the shared
   online path (:meth:`repro.core.base.Scheduler.plan_online` via
   :meth:`repro.sim.environment.Session.submit`), and the promises sold are
   stamped onto the live records so completion-side counters score against
   exactly what was quoted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..analysis.invariants import EnvironmentInvariants
from ..core.base import Scheduler
from ..metrics.streaming import StreamingSLAStats
from ..obs import ObsRuntime
from ..sim.environment import CloudBurstEnvironment, RunPlugin
from ..sim.tracing import JobRecord, RunTrace
from ..workload.document import Job
from .policy import AdmissionResult, SLAPolicy
from .quotes import SLAQuote, quote_job

__all__ = ["SubmissionOutcome", "BurstBroker"]


@dataclass(frozen=True)
class SubmissionOutcome:
    """What the broker told one submitted job: quote plus admission verdict."""

    job: Job
    quote: SLAQuote
    result: AdmissionResult

    @property
    def admitted(self) -> bool:
        return self.result.admitted


class BurstBroker(RunPlugin):
    """Online SLA-quoting admission broker over one environment instance.

    Like the environment it wraps, a broker is single-session: construct,
    submit arrivals in non-decreasing time order, then :meth:`finish` to
    drain in-flight work and collect the :class:`RunTrace`. As a plugin it
    feeds completions into :attr:`stats` and closes the run with the
    ``trace.metadata["admission"]`` block.
    """

    key = "admission"

    def __init__(
        self,
        env: CloudBurstEnvironment,
        scheduler: Scheduler,
        policy: Optional[SLAPolicy] = None,
        stats: Optional[StreamingSLAStats] = None,
    ) -> None:
        super().__init__(env)
        self.scheduler = scheduler
        self.policy = policy if policy is not None else SLAPolicy()
        self.stats = stats if stats is not None else StreamingSLAStats()
        self._session = env.session(scheduler)
        self._finished = False
        self._last_arrival = -float("inf")

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual-clock instant (absolute simulation seconds)."""
        return self.env.sim.now

    # ------------------------------------------------------------------
    def submit(
        self,
        jobs: Sequence[Job],
        arrival_time: Optional[float] = None,
        batch_id: Optional[int] = None,
        policy: Optional[SLAPolicy] = None,
    ) -> list[SubmissionOutcome]:
        """Quote, admit and dispatch jobs arriving together.

        ``arrival_time`` is in workload-relative seconds (the
        :class:`~repro.workload.generator.Batch` convention, offset from
        :attr:`CloudBurstEnvironment.origin`); ``None`` submits at the
        current virtual instant. Submissions must be time-ordered — the
        virtual clock never runs backwards.

        ``policy`` overrides the broker's default admission policy for
        this one submission group. Multi-tenant fronts
        (:mod:`repro.fleet`) price and admit each tenant's arrivals under
        that tenant's SLA class while sharing one broker session; the
        default ``None`` keeps the single-tenant behaviour.
        """
        if self._finished:
            raise RuntimeError("broker session already finished")
        if policy is None:
            policy = self.policy
        jobs = list(jobs)
        if arrival_time is not None:
            t = self.env.origin + arrival_time
            if t < self.now - 1e-12:
                raise ValueError(
                    f"submission at t={t} behind the virtual clock ({self.now})"
                )
            if t > self.now:
                self.env.sim.run_until(t)
        self._last_arrival = self.now

        state = self.env.build_state()
        obs = self.env.plugin(ObsRuntime)
        outcomes: list[SubmissionOutcome] = []
        admitted: list[tuple[Job, SLAQuote]] = []
        in_system = self.env.jobs_in_system
        for job in jobs:
            quote = quote_job(job, state, self.env.estimator, policy.ticket)
            result = policy.admit(quote, in_system, state.upload_backlog_mb)
            if result.degraded:
                quote = replace(quote, degraded=True)
            if result.admitted:
                admitted.append((job, quote))
                in_system += 1
            self.stats.on_admission(result.decision, result.reason)
            if obs is not None:
                obs.on_admission(result.decision, result.reason, self.now)
            outcomes.append(SubmissionOutcome(job=job, quote=quote, result=result))

        if admitted:
            # Reuse the quoting snapshot: no event has run since it was
            # built, so a rebuild would be bit-identical work.
            plan = self._session.submit(
                [job for job, _ in admitted], batch_id=batch_id, state=state
            )
            if policy.ticket is not None:
                # Chunking schedulers may split an admitted job into
                # sub-units; every unit inherits the parent's sold promise.
                promises = {job.job_id: q.promise_s for job, q in admitted}
                for decision in plan.decisions:
                    promise = promises.get(decision.job.job_id)
                    if promise is not None:
                        self.env.record_for(decision.job.key).promise_s = promise
        return outcomes

    # ------------------------------------------------------------------
    def finish(self) -> RunTrace:
        """Drain every in-flight job and return the completed trace."""
        if self._finished:
            raise RuntimeError("broker session already finished")
        self._finished = True
        return self._session.finish()

    def on_complete(self, record: JobRecord) -> None:
        self.stats.on_complete(record)

    def finalize(self, trace: RunTrace) -> dict[str, object]:
        """The ``trace.metadata["admission"]`` block."""
        checker = self.env.plugin(EnvironmentInvariants)
        if checker is not None:
            checker.check_broker_counters(self.stats)
        return {
            "submitted": self.stats.submitted,
            "accepted": self.stats.accepted,
            "accepted_degraded": self.stats.accepted_degraded,
            "rejected": self.stats.rejected,
            "rejections_by_reason": dict(self.stats.rejections_by_reason),
        }
