"""Periodic rescheduling strategies (Section IV.D).

"Therefore, we need periodic rescheduling strategies to be triggered when
the IC or EC becomes idle. For instance, when a resource in IC becomes free
it picks up a job from the head of the EC queue such that the remaining
time for it to complete is greater than the time it would take to reexecute
the same in the internal cloud. Similarly, when the EC upload queue is idle
and IC has jobs waiting to execute, then we scan the IC wait queue from the
last and check if there is any job that satisfies the slack criteria."

The paper leaves these as future work; we implement both as optional
mitigations (off by default) and benchmark them in the rescheduling
ablation. This module holds the *pure selection logic* so it can be tested
in isolation; the environment wires it to its live queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..workload.document import Job
from .base import SystemState
from .estimators import FinishTimeEstimator
from .slack import SlackLedger

__all__ = ["PullCandidate", "pick_ic_pull", "pick_ec_push"]


@dataclass(frozen=True)
class PullCandidate:
    """A job selected for migration plus its fresh completion estimate."""

    job: Job
    est_completion: float


def pick_ic_pull(
    waiting_ec_jobs: Sequence[Job],
    est_completions: dict[tuple[int, int], float],
    est_proc_times: dict[tuple[int, int], float],
    now: float,
    ic_speed: float,
) -> Optional[PullCandidate]:
    """IC-pull: an idle IC machine steals from the head of the EC queue.

    Scans the not-yet-uploaded EC jobs in queue order and returns the first
    whose *estimated remaining* time to complete via EC exceeds the time a
    local re-execution would take — i.e. the local machine can beat the
    bursted path even though the job was already committed to EC.
    """
    for job in waiting_ec_jobs:
        est_completion = est_completions.get(job.key)
        est_proc = est_proc_times.get(job.key)
        if est_completion is None or est_proc is None:
            continue
        remaining_ec = est_completion - now
        local_rerun = est_proc / ic_speed
        if remaining_ec > local_rerun:
            return PullCandidate(job=job, est_completion=now + local_rerun)
    return None


def pick_ec_push(
    waiting_ic_jobs: Sequence[Job],
    estimator: FinishTimeEstimator,
    state: SystemState,
) -> Optional[PullCandidate]:
    """EC-push: an idle upload path scans the IC wait queue *from the last*.

    Returns the deepest-queued IC job that satisfies the slack criteria
    against the estimated completions of everything else in the system
    (jobs behind it in FCFS order do not gate it, so for the scan-from-tail
    policy the pending pool minus the job's own contribution is the
    correct ``T_i``). The push ships through the primary site's idle
    uplink, so the round trip is priced on site 0, not the best site.
    """
    if state.pending_keyed:
        pool = state.pending_keyed
    else:
        pool = [(None, t) for t in state.pending_completions]
    for job in reversed(list(waiting_ic_jobs)):
        est_proc = estimator.est_proc_time(job)
        ec = estimator.ft_ec(job, state, est_proc, site=0)
        others = [t for key, t in pool if key != job.key]
        ledger = SlackLedger(others, now=state.now)
        if ledger.can_burst(ec.completion):
            return PullCandidate(job=job, est_completion=ec.completion)
    return None
