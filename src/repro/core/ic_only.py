"""IC-only baseline scheduler.

The no-bursting baseline of Figs. 6 and 10: every job runs on the internal
cloud in FCFS order. Figure 10 plots the other schedulers' OO metric
*relative to* this scheduler, which by construction completes jobs nearly
in order (the only disorder comes from parallel machines finishing
unevenly).
"""

from __future__ import annotations

from ..workload.document import Job
from .base import BatchPlan, Scheduler, SystemState
from .estimators import FinishTimeEstimator

__all__ = ["ICOnlyScheduler"]


class ICOnlyScheduler(Scheduler):
    """Place every job on the internal cloud."""

    name = "ICOnly"

    def __init__(self, estimator: FinishTimeEstimator) -> None:
        self.estimator = estimator

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            finish = self.estimator.ft_ic(job, state, est_proc)
            plan.decisions.append(state.commit_ic(job, est_proc, finish))
        return plan
