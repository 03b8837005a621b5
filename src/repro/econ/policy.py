"""Cost-aware bursting and admission — where the money meets the queue.

The paper's schedulers burst on *time* (earliest finish, out-of-order
risk); a shop paying real invoices bursts on *money*. The rule is the
classical newsvendor-style comparison:

    burst  ⇔  penalty(IC lateness) − penalty(EC lateness)  >  EC cost

where each side is computed from the same finish-time estimates the
paper's schedulers already plan with (:class:`~repro.core.estimators.
FinishTimeEstimator`), the penalty side from a
:class:`~repro.econ.penalties.PenaltySchedule`, and the cost side from
:class:`~repro.econ.pricing.OnDemandPrice` — expected instance-quantum
rental for the execution plus per-GB transfer for the document.

Two surfaces:

* :class:`CostAwareScheduler` — a fifth scheduler variant registered
  beside the paper's four. Per job (queue order, committing each decision
  so later jobs see planned load), place where *expected total cost* —
  penalty plus provider spend — is lower.
* :class:`CostAwarePolicy` — a broker admission mode extending
  :class:`~repro.service.policy.SLAPolicy`: after the standard ladder, a
  job whose *expected penalty at quote time* already exceeds
  ``max_expected_penalty_usd`` is refused (reason ``"expected_penalty"``)
  — cheaper refused at the door than sold at a guaranteed loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.base import BatchPlan, Scheduler, SystemState
from ..core.estimators import FinishTimeEstimator
from ..service.policy import AdmissionDecision, AdmissionResult, SLAPolicy
from ..service.quotes import SLAQuote
from ..workload.document import Job
from .penalties import PenaltySchedule, promise_for_estimate
from .pricing import OnDemandPrice

__all__ = ["CostModel", "CostAwareScheduler", "CostAwarePolicy"]


@dataclass(frozen=True)
class CostModel:
    """Everything the cost-aware decisions price against."""

    on_demand: OnDemandPrice = OnDemandPrice()
    penalty: PenaltySchedule = field(default_factory=PenaltySchedule)

    def burst_cost_usd(self, job: Job, est_proc_s: float, ec_speed: float) -> float:
        """Expected EC spend for one job: instance time plus transfer."""
        exec_s = est_proc_s / ec_speed
        return self.on_demand.compute_usd(exec_s) + self.on_demand.transfer_usd(
            job.input_mb + job.output_mb
        )

    def expected_penalty_usd(
        self, job: Job, est_proc_s: float, est_completion: float, now: float
    ) -> float:
        """Penalty expected if the job completes at ``est_completion``.

        The promise clock starts at ``now`` — the plan instant, which for
        online batches is the submission point (the ticket-aware
        scheduler's anchoring; job arrival times live on the workload's
        relative axis, not the simulator's).
        """
        promise = promise_for_estimate(job, est_proc_s, self.penalty.ticket)
        lateness = (est_completion - now) - promise
        return self.penalty.usd_for_lateness(lateness)


class CostAwareScheduler(Scheduler):
    """Expected-total-cost placement: burst iff the penalty saved pays
    for the external cloud."""

    name = "CostAware"

    def __init__(
        self,
        estimator: FinishTimeEstimator,
        cost_model: "CostModel | None" = None,
    ) -> None:
        self.estimator = estimator
        self.cost_model = cost_model if cost_model is not None else CostModel()

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        model = self.cost_model
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            t_ic = self.estimator.ft_ic(job, state, est_proc)
            ec = self.estimator.ft_ec(job, state, est_proc)
            pen_ic = model.expected_penalty_usd(job, est_proc, t_ic, state.now)
            pen_ec = model.expected_penalty_usd(
                job, est_proc, ec.completion, state.now
            )
            ec_usd = model.burst_cost_usd(job, est_proc, state.sites[ec.site].ec_speed)
            # Burst only when the penalty avoided pays the provider's
            # invoice; ties (including the no-penalty case) stay local —
            # the IC is already paid for.
            if pen_ic - pen_ec > ec_usd:
                plan.decisions.append(state.commit_ec(job, est_proc, ec))
            else:
                plan.decisions.append(state.commit_ic(job, est_proc, t_ic))
        return plan


@dataclass(frozen=True)
class CostAwarePolicy(SLAPolicy):
    """Admission that refuses jobs already priced at a guaranteed loss.

    Extends the standard ladder with a final money check: the quote's
    (negative) slack implies an expected lateness, the schedule prices
    it, and anything above ``max_expected_penalty_usd`` is rejected with
    reason ``"expected_penalty"``. With the default threshold of zero,
    any job whose expected penalty is positive — i.e. any degraded-band
    admit the schedule would actually fine — is refused.
    """

    penalty: PenaltySchedule = field(default_factory=PenaltySchedule)
    max_expected_penalty_usd: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.max_expected_penalty_usd >= 0 or math.isinf(
            self.max_expected_penalty_usd
        )):
            raise ValueError("max_expected_penalty_usd cannot be negative")

    def admit(
        self,
        quote: SLAQuote,
        in_system: int,
        upload_backlog_mb: float,
    ) -> AdmissionResult:
        result = super().admit(quote, in_system, upload_backlog_mb)
        if not result.admitted:
            return result
        expected_usd = self.penalty.usd_for_lateness(-quote.slack_s)
        if expected_usd > self.max_expected_penalty_usd:
            return AdmissionResult(AdmissionDecision.REJECT, "expected_penalty")
        return result
