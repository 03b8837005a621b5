"""Multi-cloud bursting: choosing *where* among several external clouds.

Section I poses the full question — "given a workload, how do we determine
when (a scheduler decision under resource variation), where (to which
cloud) and how much (the quantum of work) to burst out" — and the
introduction anticipates that "one could possibly choose from a pool of
Cloud Providers at run-time". The paper evaluates a single static EC; this
module implements the "where" extension on top of the same machinery.
Every site is one entry of ``state.sites`` (the primary first, then each
extra site); ``ft_ec(..., site=...)`` estimates a round trip through it
and ``state.commit_ec(..., site=...)`` books a placement on it, so a
site's index in that list is the decision's ``ec_site``:

* :class:`MultiECGreedyScheduler` — Algorithm 1 generalised: place each
  job where it finishes earliest among IC and *every* EC site;
* :class:`MultiECOrderPreservingScheduler` — Algorithm 2 generalised:
  burst to the earliest-completing site whose round trip fits the slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common import Placement
from ..workload.document import Job
from .base import BatchPlan, Decision, Scheduler, Site, SystemState
from .estimators import EcEstimate, FinishTimeEstimator
from .slack import SlackLedger

__all__ = ["MultiECGreedyScheduler", "MultiECOrderPreservingScheduler"]


@dataclass
class _BestEc:
    index: int
    site: Site
    estimate: EcEstimate


def _best_site(
    job: Job, est_proc: float, state: SystemState, estimator: FinishTimeEstimator
) -> _BestEc:
    """Earliest-completing EC site for ``job`` under current plans."""
    best: Optional[_BestEc] = None
    for index, site in enumerate(state.sites):
        est = estimator.ft_ec(job, state, est_proc, site=site)
        if best is None or est.completion < best.estimate.completion:
            best = _BestEc(index=index, site=site, estimate=est)
    assert best is not None
    return best


class MultiECGreedyScheduler(Scheduler):
    """Algorithm 1 over a pool of external clouds."""

    name = "MultiGreedy"

    def __init__(self, estimator: FinishTimeEstimator) -> None:
        self.estimator = estimator

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            t_ic = self.estimator.ft_ic(job, state, est_proc)
            best = _best_site(job, est_proc, state, self.estimator)
            if t_ic <= best.estimate.completion:
                state.commit_ic(t_ic)
                plan.decisions.append(Decision(job, Placement.IC, est_proc, t_ic))
            else:
                state.commit_ec(job, best.estimate.exec_end, best.estimate.completion,
                                site=best.site)
                plan.decisions.append(
                    Decision(job, Placement.EC, est_proc,
                             best.estimate.completion, ec_site=best.index)
                )
        return plan


class MultiECOrderPreservingScheduler(Scheduler):
    """Algorithm 2 over a pool of external clouds.

    The slack test is unchanged (Eq. 2); the candidate round trip is the
    best over all sites, so adding a site can only widen the set of jobs
    that burst, never violate ordering by estimate.
    """

    name = "MultiOp"

    def __init__(self, estimator: FinishTimeEstimator, slack_margin: float = 0.0) -> None:
        self.estimator = estimator
        self.slack_margin = slack_margin

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        ledger = SlackLedger(state.pending_completions, now=state.now)
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            best = _best_site(job, est_proc, state, self.estimator)
            if ledger.can_burst(best.estimate.completion, margin=self.slack_margin):
                state.commit_ec(job, best.estimate.exec_end, best.estimate.completion,
                                site=best.site)
                ledger.add(best.estimate.completion)
                plan.decisions.append(
                    Decision(job, Placement.EC, est_proc,
                             best.estimate.completion, ec_site=best.index)
                )
            else:
                t_ic = self.estimator.ft_ic(job, state, est_proc)
                state.commit_ic(t_ic)
                ledger.add(t_ic)
                plan.decisions.append(Decision(job, Placement.IC, est_proc, t_ic))
        return plan
