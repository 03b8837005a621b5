"""Opt-in runtime invariant checker for the simulated cloud-bursting system.

The static lint (:mod:`repro.analysis.lint`) keeps non-determinism out of
the source; this module checks, *while a simulation runs*, the structural
properties every SLA number rests on:

* **event-time monotonicity** — the engine never executes an event earlier
  than the previous one, and same-instant events run in FIFO sequence
  order (the documented deterministic tie-break);
* **job conservation** — at every completion, ``admitted == completed +
  in-flight``, and the environment's two in-flight ledgers (``_remaining``
  and the ``_open`` map) agree; with the broker on top, ``submitted ==
  accepted + accepted_degraded + rejected``;
* **non-negative backlogs** — no pipeline's queued+in-flight MB ever goes
  negative (the fluid-flow integrator must not overdraw a transfer);
* **per-job timestamp sanity** — each completed record's lifecycle chain
  is monotone (non-negative stage durations and response time), via
  :meth:`repro.sim.tracing.JobRecord.validate`;
* **SIBS ride-up-only** — Section IV.C's cross-queue policy: a job from a
  lower (smaller-interval) queue may ride an idle higher queue, but a job
  must never start on a queue whose size interval it exceeds.

Every check is O(1) per event/completion — cheap enough to leave on for
the whole test suite, which is exactly what CI does::

    REPRO_INVARIANTS=1 python -m pytest -x -q

Setting ``REPRO_INVARIANTS=1`` makes every
:class:`~repro.sim.environment.CloudBurstEnvironment` install a checker on
itself at construction; programmatic use is one call (which returns the
already-installed checker, if there is one)::

    from repro.analysis.invariants import install_invariants
    checker = install_invariants(env)
    ...
    env.run(batches, scheduler)
    print(checker.stats)

A violated invariant raises :class:`InvariantError` (an ``AssertionError``
subclass, so ``pytest.raises(AssertionError)`` also catches it) at the
moment of violation, with the simulated time in the message.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sim.environment import CloudBurstEnvironment, RunPlugin

if TYPE_CHECKING:  # imports for annotations only; no runtime cycle
    from ..metrics.streaming import StreamingSLAStats
    from ..sim.engine import Event
    from ..sim.pipeline import PipelineItem, SizeQueue, TransferPipeline
    from ..sim.tracing import JobRecord, RunTrace

__all__ = [
    "InvariantError",
    "InvariantStats",
    "EnvironmentInvariants",
    "install_invariants",
    "invariants_enabled",
]

#: Tolerance for fluid-flow rounding when checking non-negative backlogs.
_BACKLOG_EPS_MB = 1e-6


class InvariantError(AssertionError):
    """A runtime invariant of the simulated system was violated."""


def invariants_enabled() -> bool:
    """Whether ``REPRO_INVARIANTS`` asks for checkers on every environment."""
    return os.environ.get("REPRO_INVARIANTS", "").strip().lower() not in (
        "", "0", "false", "no",
    )


@dataclass
class InvariantStats:
    """How much checking actually happened (zero everywhere = not wired)."""

    events_checked: int = 0
    transfers_checked: int = 0
    admissions_seen: int = 0
    completions_checked: int = 0
    finishes_checked: int = 0

    def render(self) -> str:
        return (
            f"invariants: {self.events_checked} events, "
            f"{self.transfers_checked} transfer starts, "
            f"{self.completions_checked}/{self.admissions_seen} "
            f"completions/admissions, {self.finishes_checked} finish check(s)"
        )


class EnvironmentInvariants(RunPlugin):
    """One checker bound to one environment instance (single-use, like it).

    Besides the plugin lifecycle it hooks the engine's per-event and the
    pipelines' per-transfer-start callbacks.
    """

    def __init__(self, env: CloudBurstEnvironment) -> None:
        super().__init__(env)
        self.stats = InvariantStats()
        self._last_time = -math.inf
        self._last_seq = -1
        self._admitted = 0
        self._completed = 0
        env.sim.on_event = self._on_event
        for pipeline in self._pipelines():
            pipeline.on_transfer_start = self._on_transfer_start

    def _pipelines(self) -> list["TransferPipeline"]:
        return [p for site in self.env.sites for p in (site.upload, site.download)]

    # ------------------------------------------------------------------
    # Engine: event-time monotonicity + FIFO tie-break order
    # ------------------------------------------------------------------
    def _on_event(self, event: "Event") -> None:
        self.stats.events_checked += 1
        if math.isnan(event.time):
            raise InvariantError("engine executed an event at NaN time")
        if event.time < self._last_time:
            raise InvariantError(
                f"event time ran backwards: t={event.time} after "
                f"t={self._last_time}"
            )
        # Same instant must preserve schedule order (FIFO tie-break); exact
        # equality is correct here — the engine stores the popped time
        # unchanged, so bit-identity is the tie condition.
        if event.time == self._last_time and event.seq < self._last_seq:  # repro: allow[FLT001] bit-identity is the tie condition
            raise InvariantError(
                f"FIFO tie-break violated at t={event.time}: "
                f"seq {event.seq} after seq {self._last_seq}"
            )
        self._last_time = event.time
        self._last_seq = event.seq

    # ------------------------------------------------------------------
    # Pipelines: SIBS cross-queue policy (ride up, never down)
    # ------------------------------------------------------------------
    def _on_transfer_start(
        self,
        pipeline: "TransferPipeline",
        queue: "SizeQueue",
        item: "PipelineItem",
    ) -> None:
        self.stats.transfers_checked += 1
        if item.size_mb > queue.upper:
            raise InvariantError(
                f"SIBS violation at t={self.env.sim.now}: {item.size_mb} MB "
                f"item started on {queue.name} (interval ({queue.lower}, "
                f"{queue.upper}]) — jobs may ride higher queues, never lower"
            )
        if queue.active is not item:
            raise InvariantError(
                f"{pipeline.name}: transfer started without occupying its "
                f"queue slot ({queue.name})"
            )

    # ------------------------------------------------------------------
    # Environment lifecycle: conservation + backlogs + record sanity
    # ------------------------------------------------------------------
    def on_admit(self, record: "JobRecord") -> None:
        self._admitted += 1
        self.stats.admissions_seen += 1

    def on_complete(self, record: "JobRecord") -> None:
        self.stats.completions_checked += 1
        self._completed += 1
        env = self.env
        now = env.sim.now
        in_flight = env.jobs_in_system
        if in_flight < 0:
            raise InvariantError(f"negative in-flight job count at t={now}")
        if in_flight != len(env._open):
            raise InvariantError(
                f"in-flight ledgers disagree at t={now}: _remaining="
                f"{in_flight} but {len(env._open)} open job(s)"
            )
        if self._admitted != self._completed + in_flight:
            raise InvariantError(
                f"job conservation violated at t={now}: admitted="
                f"{self._admitted} != completed={self._completed} "
                f"+ in-flight={in_flight}"
            )
        for pipeline in self._pipelines():
            backlog = pipeline.backlog_mb
            if backlog < -_BACKLOG_EPS_MB:
                raise InvariantError(
                    f"negative backlog on {pipeline.name} at t={now}: "
                    f"{backlog} MB"
                )
        try:
            record.validate()
        except ValueError as exc:
            raise InvariantError(f"completed record inconsistent: {exc}") from exc
        response = record.response_time
        if response is not None and response < 0:
            raise InvariantError(
                f"job {record.job_id} completed before it arrived "
                f"(response {response}s)"
            )

    def finalize(self, trace: "RunTrace") -> None:
        """End-of-run accounting once the drain loop declares victory."""
        self.stats.finishes_checked += 1
        if self.env.jobs_in_system != 0:
            raise InvariantError(
                f"run finalised with {self.env.jobs_in_system} job(s) in flight"
            )
        if self._completed != self._admitted:
            raise InvariantError(
                f"run finalised with admitted={self._admitted} != "
                f"completed={self._completed}"
            )
        try:
            trace.validate()
        except ValueError as exc:
            raise InvariantError(f"final trace inconsistent: {exc}") from exc

    def check_broker_counters(self, stats: "StreamingSLAStats") -> None:
        """Broker-level conservation: every submission got exactly one verdict."""
        accounted = stats.accepted + stats.accepted_degraded + stats.rejected
        if stats.submitted != accounted:
            raise InvariantError(
                f"admission conservation violated: submitted={stats.submitted} "
                f"!= accepted={stats.accepted} + degraded="
                f"{stats.accepted_degraded} + rejected={stats.rejected}"
            )
        rejected_by_reason = sum(stats.rejections_by_reason.values())
        if rejected_by_reason != stats.rejected:
            raise InvariantError(
                f"rejection reasons ({rejected_by_reason}) do not sum to "
                f"rejected count ({stats.rejected})"
            )


def install_invariants(env: CloudBurstEnvironment) -> EnvironmentInvariants:
    """The checker on ``env``, attaching one unless ``REPRO_INVARIANTS``
    already did; returned for introspection."""
    return env.plugin(EnvironmentInvariants) or EnvironmentInvariants(env)
