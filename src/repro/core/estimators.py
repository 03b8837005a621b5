"""Finish-time estimation: ``ft^ic(i, S)`` and ``ft^ec(i, S)``.

Section III.A: "the system estimates the finish times in IC and EC
considering the current load, the expected run times of the jobs
(processing time estimates) and the expected bandwidth usages for
upload/download of the job/result."

All estimates are built from the *learned* models (QRSM for processing
time, time-of-day EWMA for bandwidth) plus the queue/backlog snapshot in
:class:`repro.core.base.SystemState` — never from the environment's hidden
ground truth. Estimation error is therefore a real phenomenon here, as in
the paper (Section IV.D discusses its consequences).

``ft_ec`` also answers *where* to burst (Section I): it prices every EC
site in ``state.sites`` and returns the earliest round trip, tagged with
the site's index. Every scheduler that bursts therefore bursts to the
earliest-completing site, and ``SystemState.commit_ec`` books the job on
that same site. With one site this is the paper's single-EC estimate.
"""

from __future__ import annotations

from ..models.qrsm import QuadraticResponseSurface
from ..workload.document import Job
from .base import EcEstimate, SystemState

__all__ = ["FinishTimeEstimator", "EcEstimate"]


class FinishTimeEstimator:
    """Computes finish-time estimates for placement decisions."""

    def __init__(self, qrsm: QuadraticResponseSurface) -> None:
        self.qrsm = qrsm

    # ------------------------------------------------------------------
    def est_proc_time(self, job: Job) -> float:
        """``t^e(i)``: estimated processing time on a standard machine."""
        return float(self.qrsm.predict(job.features))

    def est_proc_times(self, jobs: "list[Job] | tuple[Job, ...]") -> list[float]:
        """Batch ``t^e`` for a whole arrival, bit-identical per job.

        Delegates to :meth:`QuadraticResponseSurface.predict_many`, which
        serves every row through the same cached single-sample path the
        scalar call uses.
        """
        return [float(p) for p in self.qrsm.predict_many([j.features for j in jobs])]

    # ------------------------------------------------------------------
    def ft_ic(self, job: Job, state: SystemState, est_proc: float | None = None) -> float:
        """Estimated completion if placed on the internal cloud now.

        The job joins the IC wait queue; it starts when the earliest
        machine (per the folded estimates in ``state.ic_free``) frees up.
        """
        if est_proc is None:
            est_proc = self.est_proc_time(job)
        start = max(state.now, min(state.ic_free))
        return start + est_proc / state.ic_speed

    def ft_ec(
        self,
        job: Job,
        state: SystemState,
        est_proc: float | None = None,
        site: int | None = None,
    ) -> EcEstimate:
        """Estimated completion of the full EC round trip under current load.

        Upload is serialised behind the current upload backlog at the
        estimated effective rate (Eq. 2's ``s_i / l(t_i)``); execution
        waits for an EC machine; the result download queues behind the
        download backlog (``o_i / l(t_i + t')``). This is also the
        paper's "where": every entry of ``state.sites`` is priced and the
        earliest completion wins, the lowest index on a tie. An explicit
        ``site`` index prices that one site only. ``state.now`` is the
        decision instant.
        """
        if est_proc is None:
            est_proc = self.est_proc_time(job)
        now = state.now
        sites = state.sites
        best: EcEstimate | None = None
        for index in range(len(sites)) if site is None else (site,):
            s = sites[index]
            upload_end = now + (s.upload_backlog_mb + job.input_mb) / s.up_rate
            exec_start = max(upload_end, min(s.ec_free, default=upload_end))
            exec_end = exec_start + est_proc / s.ec_speed
            completion = exec_end + (s.download_backlog_mb + job.output_mb) / s.down_rate
            if best is None or completion < best.completion:
                best = EcEstimate(upload_end, exec_start, exec_end, completion, index)
        assert best is not None
        return best

    def ec_round_trip_unloaded(self, job: Job, state: SystemState, est_proc: float | None = None) -> float:
        """Algorithm 3's ``t_ec``: EC round-trip duration *under no load*.

        ``job.t_up + job.e_ec + job.t_down`` — used to find the potential
        burst candidates before computing size-interval bounds.
        """
        if est_proc is None:
            est_proc = self.est_proc_time(job)
        return (
            job.input_mb / state.up_rate
            + est_proc / state.ec_speed
            + job.output_mb / state.down_rate
        )
