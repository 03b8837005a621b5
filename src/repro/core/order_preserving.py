"""Order-Preserving scheduler — Algorithm 2.

"The motivation for this scheduler is that the jobs must complete more or
less in the order of arrival with the added constraint that no internal job
waits for the results from the bursted out job."

Two phases per batch:

1. **Chunking** (lines 3-10): when the look-ahead size dispersion exceeds a
   threshold, the current job is ``pdfchunk``-ed and its chunks re-inserted
   in place (see :mod:`repro.core.chunking`).
2. **Slack-constrained placement** (lines 11-17): job ``j_i`` is bursted
   only if its estimated EC finish time fits inside its slack — the
   maximum estimated completion time of all preceding work (Eqs. 1-2).
   Jobs that fail the test run locally. Thus a bursted job is, by
   construction of the *estimates*, never on the critical path; only
   estimation error can put it there (Section IV.D's robustness
   discussion).
"""

from __future__ import annotations

from typing import Optional

from ..workload.document import Job
from .base import BatchPlan, Scheduler, SystemState
from .chunking import ChunkPolicy, chunk_batch
from .estimators import FinishTimeEstimator
from .slack import SlackLedger

__all__ = ["OrderPreservingScheduler"]


class OrderPreservingScheduler(Scheduler):
    """Algorithm 2: chunk for size uniformity, burst only within slack."""

    name = "Op"

    def __init__(
        self,
        estimator: FinishTimeEstimator,
        chunk_policy: Optional[ChunkPolicy] = None,
        slack_margin: float = 0.0,
        enable_chunking: bool = True,
    ) -> None:
        self.estimator = estimator
        self.chunk_policy = chunk_policy if chunk_policy is not None else ChunkPolicy()
        self.slack_margin = slack_margin
        self.enable_chunking = enable_chunking

    def prepare(self, jobs: list[Job]) -> list[Job]:
        """Phase 1: dispersion-triggered in-place chunking."""
        if not self.enable_chunking:
            return list(jobs)
        return chunk_batch(jobs, self.chunk_policy)

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        return self.plan_prepared(self.prepare(jobs), state)

    def plan_prepared(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        """Phase 2 (lines 11-17) over an already-chunked job list."""
        ledger = SlackLedger(state.pending_completions, now=state.now)
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            ec = self.estimator.ft_ec(job, state, est_proc)
            if ledger.can_burst(ec.completion, margin=self.slack_margin):
                plan.decisions.append(state.commit_ec(job, est_proc, ec))
                ledger.add(ec.completion)
            else:
                t_ic = self.estimator.ft_ic(job, state, est_proc)
                plan.decisions.append(state.commit_ic(job, est_proc, t_ic))
                ledger.add(t_ic)
        return plan
