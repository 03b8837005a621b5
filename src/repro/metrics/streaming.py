"""Streaming SLA-attainment counters for the online broker.

The batch metrics in this package (:mod:`repro.metrics.sla`,
:mod:`repro.metrics.tickets`) are pure functions of a *finished*
:class:`~repro.sim.tracing.RunTrace`. An online broker serving an open-ended
arrival stream never finishes, so it needs metrics that update one event at
a time in O(1) memory-per-event: admission counts by decision and reason,
completion counts against the promises that were actually sold, and
response-time quantiles over a bounded reservoir.

Quantiles use Vitter's Algorithm R reservoir with a seeded RNG, so a run's
reported percentiles are reproducible while memory stays constant no matter
how many millions of jobs stream through.

Shard aggregation (:mod:`repro.fleet`) folds N independent per-shard stats
objects into one fleet view with :meth:`StreamingSLAStats.merge`: counts
and sums merge exactly, and the quantile reservoirs merge through a
seeded, order-sensitive weighted draw — merging the same shard states in
the same order always yields bit-identical quantile state, which is what
makes the fleet's aggregated report hashable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..common import substream_seed
from ..sim.tracing import JobRecord

__all__ = ["ReservoirSampler", "StreamingSLAStats"]


class ReservoirSampler:
    """Uniform fixed-size sample of an unbounded stream (Algorithm R)."""

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self.seed = seed
        self._rng = random.Random(seed)
        self._sample: list[float] = []
        self.n_seen = 0

    def add(self, value: float) -> None:
        self.n_seen += 1
        if len(self._sample) < self.capacity:
            self._sample.append(value)
            return
        j = self._rng.randrange(self.n_seen)
        if j < self.capacity:
            self._sample[j] = value

    def percentile(self, q: float) -> float:
        """q-th percentile (0-100) of the sampled stream; NaN when empty."""
        if not self._sample:
            return float("nan")
        return float(np.percentile(self._sample, q))

    @property
    def values(self) -> list[float]:
        return list(self._sample)

    def merge(self, other: "ReservoirSampler") -> None:
        """Fold another sampler's state into this one, deterministically.

        When the union of both streams fits in this reservoir the merge is
        exact (simple concatenation). Otherwise each retained sample value
        stands in for ``n_seen / len(sample)`` stream items, and the merged
        reservoir is drawn by weighted selection without replacement from
        the two samples — an unbiased-in-expectation approximation of a
        single reservoir over the concatenated stream. The draw uses a
        fresh RNG seeded from both samplers' seeds and counts, so merging
        identical states in identical order is bit-reproducible regardless
        of what either sampler consumed before.
        """
        if other.n_seen == 0:
            return
        total = self.n_seen + other.n_seen
        if total <= self.capacity:
            self._sample.extend(other._sample)
            self.n_seen = total
            return
        a = list(self._sample)
        b = list(other._sample)
        # Per-element stream mass each retained value represents.
        mass_a = self.n_seen / len(a) if a else 0.0
        mass_b = other.n_seen / len(b) if b else 0.0
        weight_a = mass_a * len(a)
        weight_b = mass_b * len(b)
        rng = random.Random(
            substream_seed(
                self.seed, "reservoir-merge", other.seed, self.n_seen, other.n_seen
            )
        )
        merged: list[float] = []
        while len(merged) < self.capacity and (a or b):
            take_a = bool(a) and (
                not b or rng.random() * (weight_a + weight_b) < weight_a
            )
            src = a if take_a else b
            merged.append(src.pop(rng.randrange(len(src))))
            if take_a:
                weight_a -= mass_a
            else:
                weight_b -= mass_b
        self._sample = merged
        self.n_seen = total


@dataclass
class StreamingSLAStats:
    """Incrementally maintained SLA attainment for one broker session.

    Admission-side counters are fed by the broker as it decides; the
    completion-side counters by the broker's plugin completion hook
    (:meth:`on_complete`), and penalties by econ or a fleet shard
    (:meth:`on_penalty`) — disjoint fields, so the order those plugins
    fire in cannot move a result. ``promise_s`` on the completed record links
    the two: attainment is measured against the promise *sold at admission*,
    never re-derived after the fact.
    """

    submitted: int = 0
    accepted: int = 0
    accepted_degraded: int = 0
    rejected: int = 0
    rejections_by_reason: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    sla_met: int = 0
    sla_violated: int = 0
    response_sum_s: float = 0.0
    lateness_sum_s: float = 0.0
    penalty_usd: float = 0.0
    penalties_accrued: int = 0
    reservoir_seed: int = 0
    _responses: Optional[ReservoirSampler] = None

    def __post_init__(self) -> None:
        if self._responses is None:
            self._responses = ReservoirSampler(seed=self.reservoir_seed)

    # ------------------------------------------------------------------
    # Admission side
    # ------------------------------------------------------------------
    def on_admission(self, decision: str, reason: str = "") -> None:
        """Count one admission decision (see repro.service.policy)."""
        self.submitted += 1
        if decision == "accept":
            self.accepted += 1
        elif decision == "accept_degraded":
            self.accepted_degraded += 1
        elif decision == "reject":
            self.rejected += 1
            key = reason or "unspecified"
            self.rejections_by_reason[key] = self.rejections_by_reason.get(key, 0) + 1
        else:
            raise ValueError(f"unknown admission decision {decision!r}")

    # ------------------------------------------------------------------
    # Completion side
    # ------------------------------------------------------------------
    def on_complete(self, record: JobRecord) -> None:
        """Fold one completed job into the attainment counters."""
        response = record.response_time
        if response is None:
            return
        self.completed += 1
        self.response_sum_s += response
        self._responses.add(response)
        if record.promise_s is not None:
            late = response - record.promise_s
            self.lateness_sum_s += late
            if late <= 0.0:
                self.sla_met += 1
            else:
                self.sla_violated += 1

    def on_penalty(self, usd: float) -> None:
        """Accrue one SLA penalty charge (fed by the econ runtime)."""
        self.penalty_usd += usd
        self.penalties_accrued += 1

    # ------------------------------------------------------------------
    # Cross-shard aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingSLAStats") -> "StreamingSLAStats":
        """Fold another stats object into this one (fleet aggregation).

        Counts and sums merge *exactly* (integer adds; float sums in the
        caller's merge order, which the fleet fixes to shard order).
        Quantile reservoir state merges deterministically — see
        :meth:`ReservoirSampler.merge`. Returns ``self`` so merges chain.
        """
        self.submitted += other.submitted
        self.accepted += other.accepted
        self.accepted_degraded += other.accepted_degraded
        self.rejected += other.rejected
        for reason, count in sorted(other.rejections_by_reason.items()):
            self.rejections_by_reason[reason] = (
                self.rejections_by_reason.get(reason, 0) + count
            )
        self.completed += other.completed
        self.sla_met += other.sla_met
        self.sla_violated += other.sla_violated
        self.response_sum_s += other.response_sum_s
        self.lateness_sum_s += other.lateness_sum_s
        self.penalty_usd += other.penalty_usd
        self.penalties_accrued += other.penalties_accrued
        self._responses.merge(other._responses)
        return self

    def __iadd__(self, other: "StreamingSLAStats") -> "StreamingSLAStats":
        return self.merge(other)

    def counters_dict(self) -> dict[str, object]:
        """Scalar counter state, for reports and canonical hashing.

        Excludes the reservoir sample itself; includes the count it has
        seen, so two stats objects with equal dicts scored the same
        stream volume.
        """
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "accepted_degraded": self.accepted_degraded,
            "rejected": self.rejected,
            "rejections_by_reason": dict(sorted(self.rejections_by_reason.items())),
            "completed": self.completed,
            "sla_met": self.sla_met,
            "sla_violated": self.sla_violated,
            "response_sum_s": self.response_sum_s,
            "lateness_sum_s": self.lateness_sum_s,
            "penalty_usd": self.penalty_usd,
            "penalties_accrued": self.penalties_accrued,
            "responses_seen": self._responses.n_seen,
        }

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        return self.accepted + self.accepted_degraded

    @property
    def rejection_rate(self) -> float:
        if self.submitted == 0:
            return 0.0
        return self.rejected / self.submitted

    @property
    def attainment(self) -> float:
        """Fraction of promise-carrying completions that met their promise."""
        scored = self.sla_met + self.sla_violated
        if scored == 0:
            return 1.0
        return self.sla_met / scored

    @property
    def mean_response_s(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.response_sum_s / self.completed

    def response_percentile(self, q: float) -> float:
        return self._responses.percentile(q)

    def render(self) -> str:
        lines = [
            f"submitted {self.submitted}: "
            f"{self.accepted} accepted, {self.accepted_degraded} degraded, "
            f"{self.rejected} rejected ({100 * self.rejection_rate:.1f}%)",
        ]
        if self.rejections_by_reason:
            reasons = ", ".join(
                f"{k}={v}" for k, v in sorted(self.rejections_by_reason.items())
            )
            lines.append(f"rejection reasons: {reasons}")
        lines.append(
            f"completed {self.completed}: mean response {self.mean_response_s:.1f}s, "
            f"p50 {self.response_percentile(50):.1f}s, "
            f"p99 {self.response_percentile(99):.1f}s"
        )
        scored = self.sla_met + self.sla_violated
        if scored:
            lines.append(
                f"SLA attainment: {100 * self.attainment:.1f}% "
                f"({self.sla_met}/{scored} promises met)"
            )
        if self.penalties_accrued:
            lines.append(
                f"SLA penalties: ${self.penalty_usd:,.2f} accrued "
                f"({self.penalties_accrued} charges)"
            )
        return "\n".join(lines)
