"""Ticket-aware order-preserving scheduler.

Section I ties the OO metric to per-job promises: "Jobs are given a ticket
that they will finish a certain number of seconds from their submission
point." The plain Order-Preserving scheduler optimises the queue-level
cushion (slack) but is blind to each job's own ticket: within an ample
slack it will happily route a job through an EC round trip that overshoots
the job's promise even though the local path would have met it.

:class:`TicketAwareScheduler` adds one guard to Algorithm 2's burst test:

    burst j_i  iff  slack admits the round trip        (Eq. 2, unchanged)
               and  (ft_ec <= deadline_i  or  ft_ic > deadline_i)

i.e. never sacrifice a locally-makeable ticket to bursting; if the ticket
is doomed on the IC anyway, burst freely within slack (the EC can only
help). Deadlines are quoted from the *estimated* processing time — the
scheduler never sees ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..workload.document import Job
from .base import BatchPlan, SystemState
from .estimators import FinishTimeEstimator
from .order_preserving import OrderPreservingScheduler
from .slack import SlackLedger

__all__ = ["TicketQuote", "TicketAwareScheduler"]


@dataclass(frozen=True)
class TicketQuote:
    """Promise generator: ``deadline = now + base_s + factor * est_proc``.

    ``factor=0`` with a positive ``base_s`` reproduces the paper's flat
    "certain number of seconds from submission"; a positive factor quotes
    proportionally to the job's estimated work, as a shop that sees the
    document features up front would.
    """

    base_s: float = 300.0
    factor: float = 3.0

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.factor < 0 or (self.base_s == 0 and self.factor == 0):
            raise ValueError("quote must produce positive promises")

    def deadline(self, now: float, est_proc: float) -> float:
        return now + self.base_s + self.factor * est_proc


class TicketAwareScheduler(OrderPreservingScheduler):
    """Algorithm 2 plus the per-job ticket guard."""

    name = "TicketOp"

    def __init__(
        self,
        estimator: FinishTimeEstimator,
        quote: TicketQuote = TicketQuote(),
        **op_kwargs: Any,
    ) -> None:
        super().__init__(estimator, **op_kwargs)
        self.quote = quote

    def plan_prepared(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        ledger = SlackLedger(state.pending_completions, now=state.now)
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            deadline = self.quote.deadline(state.now, est_proc)
            ec = self.estimator.ft_ec(job, state, est_proc)
            t_ic = self.estimator.ft_ic(job, state, est_proc)
            slack_ok = ledger.can_burst(ec.completion, margin=self.slack_margin)
            ticket_ok = ec.completion <= deadline or t_ic > deadline
            if slack_ok and ticket_ok:
                plan.decisions.append(state.commit_ec(job, est_proc, ec))
                ledger.add(ec.completion)
            else:
                plan.decisions.append(state.commit_ic(job, est_proc, t_ic))
                ledger.add(t_ic)
        return plan
