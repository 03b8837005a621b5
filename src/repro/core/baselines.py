"""Naive baseline schedulers for comparison studies.

The paper argues its learned-model, slackness-constrained schedulers beat
simpler policies; these baselines make that claim testable inside this
reproduction (its related work cites random-assignment baselines from grid
scheduling, e.g. Harchol-Balter's task-assignment studies [8]):

* :class:`RandomBurstScheduler` — bursts each job with a fixed coin-flip
  probability, no model consultation at all;
* :class:`ThresholdScheduler` — bursts whenever the estimated IC backlog
  exceeds a fixed number of seconds per machine (a common ops heuristic:
  "if the queue is deep, overflow to the cloud"), with no slackness or
  round-trip reasoning.

Both still produce honest finish-time estimates for the trace so slack
accounting for later batches stays meaningful.
"""

from __future__ import annotations

import numpy as np

from ..workload.document import Job
from .base import BatchPlan, Scheduler, SystemState
from .estimators import FinishTimeEstimator

__all__ = ["RandomBurstScheduler", "ThresholdScheduler"]


class RandomBurstScheduler(Scheduler):
    """Coin-flip placement with a fixed burst probability."""

    name = "RandomBurst"

    def __init__(
        self,
        estimator: FinishTimeEstimator,
        burst_probability: float = 0.2,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= burst_probability <= 1.0:
            raise ValueError("burst probability must lie in [0, 1]")
        self.estimator = estimator
        self.burst_probability = burst_probability
        self.rng = np.random.default_rng(seed)

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            if self.rng.random() < self.burst_probability:
                ec = self.estimator.ft_ec(job, state, est_proc)
                plan.decisions.append(state.commit_ec(job, est_proc, ec))
            else:
                t_ic = self.estimator.ft_ic(job, state, est_proc)
                plan.decisions.append(state.commit_ic(job, est_proc, t_ic))
        return plan


class ThresholdScheduler(Scheduler):
    """Burst whenever the estimated per-machine IC backlog is deep enough.

    The placement rule consults no transfer estimate: once the IC's
    estimated backlog exceeds ``backlog_threshold_s`` seconds per machine,
    every subsequent job of the batch goes to the EC until its own commit
    pulls the planning backlog back under the threshold.
    """

    name = "Threshold"

    def __init__(
        self,
        estimator: FinishTimeEstimator,
        backlog_threshold_s: float = 120.0,
    ) -> None:
        if backlog_threshold_s < 0:
            raise ValueError("threshold cannot be negative")
        self.estimator = estimator
        self.backlog_threshold_s = backlog_threshold_s

    def _ic_backlog_per_machine(self, state: SystemState) -> float:
        return float(np.mean([max(0.0, f - state.now) for f in state.ic_free]))

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            if self._ic_backlog_per_machine(state) > self.backlog_threshold_s:
                ec = self.estimator.ft_ec(job, state, est_proc)
                plan.decisions.append(state.commit_ec(job, est_proc, ec))
            else:
                t_ic = self.estimator.ft_ic(job, state, est_proc)
                plan.decisions.append(state.commit_ic(job, est_proc, t_ic))
        return plan
