"""Greedy scheduler — Algorithm 1.

"This scheduler makes a job-level greedy decision — schedules the job (in
IC or EC) where it is expected to complete earliest."

For each job in queue order it compares ``ft^ic`` against ``ft^ec`` under
the *planned* load (each decision is committed to the state so later jobs
in the batch see it) and takes the smaller. Section IV.D's critique is
reproduced faithfully by this construction: nothing stops the greedy
choice from putting a bursted job on the critical path, so estimation
errors and bandwidth dips surface as high out-of-order peaks (Figs. 7-9).
"""

from __future__ import annotations

from ..workload.document import Job
from .base import BatchPlan, Scheduler, SystemState
from .estimators import FinishTimeEstimator

__all__ = ["GreedyScheduler"]


class GreedyScheduler(Scheduler):
    """Algorithm 1: earliest-estimated-finish placement per job."""

    name = "Greedy"

    def __init__(self, estimator: FinishTimeEstimator) -> None:
        self.estimator = estimator

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            t_ic = self.estimator.ft_ic(job, state, est_proc)
            ec = self.estimator.ft_ec(job, state, est_proc)
            if t_ic <= ec.completion:  # Alg. 1 line 4: ties stay local
                plan.decisions.append(state.commit_ic(job, est_proc, t_ic))
            else:
                plan.decisions.append(state.commit_ec(job, est_proc, ec))
        return plan
