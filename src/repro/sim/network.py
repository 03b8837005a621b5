"""Fluid-flow simulation of the thin inter-cloud Internet pipe.

The paper's defining difficulty is that job transfer time over "the
best-effort transport structure of the regular Internet" is of the same
order as processing time, and that the offered bandwidth "varies
sporadically" with time of day, throttling and congestion. This module
simulates that pipe:

* :class:`CapacityProcess` — piecewise-constant link capacity: a diurnal
  mean profile (:class:`repro.models.bandwidth.DiurnalBandwidthProfile`)
  modulated by lognormal variation resampled every ``epoch_s`` seconds.
  The ``variation`` parameter is the "high network variation" knob used by
  the Fig. 9 experiment.
* :class:`Transfer` — one in-flight upload or download, pulling at most
  ``threads * per_thread_mbps`` (see :mod:`repro.models.threads`).
* :class:`FluidLink` — max-min fair (water-filling) sharing of the current
  capacity among concurrent transfers, with exact byte accounting: on every
  arrival, departure or capacity change the link integrates progress at the
  old rates and reschedules the next completion event.
* :class:`ProbeService` — the paper's periodic 1 MB test transfers feeding
  the learned time-of-day estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..models.bandwidth import DiurnalBandwidthProfile, TimeOfDayBandwidthEstimator
from .engine import Event, Simulator

__all__ = ["CapacityProcess", "Transfer", "FluidLink", "ProbeService", "waterfill"]


class ThreadTunerLike:
    """Structural interface for thread sources (see repro.models.threads)."""

    def threads_for(self, t: float) -> int:  # pragma: no cover - protocol
        raise NotImplementedError

#: Transfers with less than this many MB left are considered finished.
_EPS_MB = 1e-9


def waterfill(capacity: float, caps: np.ndarray) -> np.ndarray:
    """Max-min fair allocation of ``capacity`` among flows capped at ``caps``.

    Each flow receives ``min(cap_i, fair share)`` where the fair share is
    recomputed as capped flows release capacity — the classic progressive
    filling algorithm. Total allocated never exceeds ``capacity`` and a
    flow is only throttled below its cap when the link is the bottleneck.
    """
    n = len(caps)
    rates = np.zeros(n)
    if n == 0 or capacity <= 0:
        return rates
    order = np.argsort(caps)
    remaining = float(capacity)
    left = n
    for idx in order:
        share = remaining / left
        give = min(float(caps[idx]), share)
        rates[idx] = give
        remaining -= give
        left -= 1
    return rates


class CapacityProcess:
    """Piecewise-constant stochastic capacity for one link direction.

    Every ``epoch_s`` seconds the capacity is resampled as

        c = profile.mean_at(t) * LogNormal(-variation^2/2, variation)

    so ``E[c] = profile.mean_at(t)`` regardless of the variation level.
    A floor of 5 % of the profile mean keeps the pipe alive under extreme
    draws (mirroring the paper's always-available, if slow, Internet).
    """

    def __init__(
        self,
        sim: Simulator,
        profile: DiurnalBandwidthProfile,
        rng: np.random.Generator,
        variation: float = 0.25,
        epoch_s: float = 20.0,
    ) -> None:
        if variation < 0:
            raise ValueError("variation must be non-negative")
        if epoch_s <= 0:
            raise ValueError("epoch must be positive")
        self.sim = sim
        self.profile = profile
        self.rng = rng
        self.variation = variation
        self.epoch_s = epoch_s
        self._pre_listeners: list[Callable[[], None]] = []
        self._post_listeners: list[Callable[[], None]] = []
        #: While ``now < outage_until`` the capacity is pinned to
        #: ``outage_fraction`` of the profile mean (fault injection — see
        #: :mod:`repro.sim.faults`).
        self.outage_until = -float("inf")
        self.outage_fraction = 0.05
        self._current = self._draw(sim.now)
        sim.schedule(epoch_s, self._tick)

    def _draw(self, t: float) -> float:
        mean = self.profile.mean_at(t)
        if t < self.outage_until:
            return max(1e-6, self.outage_fraction * mean)
        if self.variation == 0:
            return mean
        factor = self.rng.lognormal(-0.5 * self.variation**2, self.variation)
        return max(0.05 * mean, mean * factor)

    def _tick(self) -> None:
        self.set_capacity(self._draw(self.sim.now))
        self.sim.schedule(self.epoch_s, self._tick)

    def begin_outage(self, duration_s: float, residual_fraction: float = 0.05) -> None:
        """Degrade the link to ``residual_fraction`` of its mean for a window.

        Models last-mile failures / hard throttling. The normal stochastic
        draw resumes at the first epoch after the window closes.
        """
        if duration_s <= 0:
            raise ValueError("outage duration must be positive")
        if not 0.0 < residual_fraction <= 1.0:
            raise ValueError("residual fraction must lie in (0, 1]")
        self.outage_fraction = residual_fraction
        self.outage_until = self.sim.now + duration_s
        self.set_capacity(self._draw(self.sim.now))

    def set_capacity(self, mbps: float) -> None:
        """Apply a capacity change with correct two-phase notification.

        Subscribers must integrate transfer progress at the *old* rate
        before the change takes effect (pre phase), then reallocate and
        reschedule at the new rate (post phase). Collapsing the two phases
        would retroactively apply the new rate to the elapsed interval.
        """
        if mbps <= 0:
            raise ValueError("capacity must be positive")
        for listener in self._pre_listeners:
            listener()
        self._current = mbps
        for listener in self._post_listeners:
            listener()

    @property
    def current_mbps(self) -> float:
        return self._current

    def subscribe(
        self,
        on_change: Callable[[], None],
        before_change: Optional[Callable[[], None]] = None,
    ) -> None:
        """Register callbacks around capacity changes.

        ``before_change`` runs while the old capacity is still in force;
        ``on_change`` runs after the new value is applied.
        """
        if before_change is not None:
            self._pre_listeners.append(before_change)
        self._post_listeners.append(on_change)


@dataclass
class Transfer:
    """One in-flight transfer on a :class:`FluidLink`."""

    size_mb: float
    threads: int
    per_thread_mbps: float
    on_complete: Callable[["Transfer"], None]
    label: str = ""
    start_time: float = 0.0
    end_time: Optional[float] = None
    remaining_mb: float = field(init=False)
    #: Integral of the *aggregate* link rate over this transfer's lifetime,
    #: and the busy time it spans. ``aggregate_mbps`` estimates the pipe's
    #: effective capacity l(t) — the quantity the EWMA model learns — and
    #: is immune to the per-flow dilution that concurrent size-interval
    #: queues introduce.
    aggregate_mb: float = field(init=False, default=0.0)
    active_time: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.size_mb <= 0:
            raise ValueError("transfer size must be positive")
        if self.threads < 1:
            raise ValueError("transfer uses at least one thread")
        self.remaining_mb = float(self.size_mb)

    @property
    def cap_mbps(self) -> float:
        """Per-transfer rate ceiling from its parallel thread streams."""
        return self.threads * self.per_thread_mbps

    @property
    def done(self) -> bool:
        return self.remaining_mb <= _EPS_MB

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def achieved_mbps(self) -> Optional[float]:
        """This transfer's own measured throughput (thread-tuner feedback)."""
        d = self.duration
        if d is None or d <= 0:
            return None
        return self.size_mb / d

    @property
    def aggregate_mbps(self) -> Optional[float]:
        """Average aggregate link throughput while this transfer ran.

        The effective-bandwidth measurement ``Y_n`` fed to the EWMA: when
        the transfer ran alone it equals :attr:`achieved_mbps`; under
        concurrent transfers it reflects the whole pipe, which is what the
        ``l(t)`` in Eq. 2 means.
        """
        if self.active_time <= 0:
            return self.achieved_mbps
        return self.aggregate_mb / self.active_time


class FluidLink:
    """A shared link direction (uplink or downlink) with fluid transfers.

    Invariants maintained (and asserted by the test suite):

    * bytes are conserved: integral of allocated rates equals MB delivered;
    * the sum of instantaneous rates never exceeds current capacity;
    * a transfer's rate never exceeds its thread cap;
    * completions fire in exact fluid-model order.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: CapacityProcess,
        per_thread_mbps: float = 0.35,
        name: str = "link",
    ) -> None:
        if per_thread_mbps <= 0:
            raise ValueError("per-thread bandwidth must be positive")
        self.sim = sim
        self.capacity = capacity
        self.per_thread_mbps = per_thread_mbps
        self.name = name
        self.active: list[Transfer] = []
        self._last_update = sim.now
        self._completion_event: Optional[Event] = None
        self.total_mb_delivered = 0.0
        self.busy_time = 0.0  # wall time with >=1 active transfer
        # Integrate at the old rate before the change, reallocate after.
        capacity.subscribe(self._on_capacity_change, before_change=self._advance)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start_transfer(
        self,
        size_mb: float,
        threads: int,
        on_complete: Callable[[Transfer], None],
        label: str = "",
    ) -> Transfer:
        """Begin a transfer now; ``on_complete(transfer)`` fires when done."""
        self._advance()
        transfer = Transfer(
            size_mb=size_mb,
            threads=threads,
            per_thread_mbps=self.per_thread_mbps,
            on_complete=on_complete,
            label=label,
            start_time=self.sim.now,
        )
        self.active.append(transfer)
        self._reschedule()
        return transfer

    def current_rates(self) -> np.ndarray:
        """Instantaneous per-transfer rates under the fluid allocation."""
        caps = np.array([t.cap_mbps for t in self.active], dtype=float)
        return waterfill(self.capacity.current_mbps, caps)

    # ------------------------------------------------------------------
    # Fluid mechanics
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Integrate progress at the rates that held since the last update."""
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        if self.active:
            rates = self.current_rates()
            total_rate = float(rates.sum())
            for transfer, rate in zip(self.active, rates):
                moved = min(transfer.remaining_mb, rate * dt)
                transfer.remaining_mb -= moved
                self.total_mb_delivered += moved
                transfer.aggregate_mb += total_rate * dt
                transfer.active_time += dt
            self.busy_time += dt
        self._last_update = now

    def _finish_completed(self) -> None:
        """Pop and notify every transfer that has drained."""
        finished = [t for t in self.active if t.done]
        if not finished:
            return
        self.active = [t for t in self.active if not t.done]
        for transfer in finished:
            transfer.remaining_mb = 0.0
            transfer.end_time = self.sim.now
            transfer.on_complete(transfer)

    def _reschedule(self) -> None:
        """Recompute and schedule the next completion instant."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self.active:
            return
        rates = self.current_rates()
        horizons = [
            t.remaining_mb / r for t, r in zip(self.active, rates) if r > 0
        ]
        if not horizons:
            # Capacity starved; the next capacity epoch will re-trigger us.
            return
        self._completion_event = self.sim.schedule(min(horizons), self._on_completion_due)

    def _on_completion_due(self) -> None:
        self._completion_event = None
        self._advance()
        self._finish_completed()
        self._reschedule()

    def _on_capacity_change(self) -> None:
        self._advance()
        self._finish_completed()
        self._reschedule()


class ProbeService:
    """Periodic 1 MB test transfers that calibrate the bandwidth estimator.

    "The effective bandwidth is measured at different times of the day by
    periodic test uploads/downloads of size 1MB from the internal to the
    external cloud." Probe results are fed to the shared
    :class:`TimeOfDayBandwidthEstimator`; real job transfers report their
    achieved throughput to the same estimator through the pipeline.
    """

    def __init__(
        self,
        sim: Simulator,
        link: FluidLink,
        estimator: TimeOfDayBandwidthEstimator,
        interval_s: float = 300.0,
        probe_mb: float = 1.0,
        threads: int = 8,
        tuner: Optional["ThreadTunerLike"] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if threads < 1:
            raise ValueError("probes need at least one thread")
        self.sim = sim
        self.link = link
        self.estimator = estimator
        self.interval_s = interval_s
        self.probe_mb = probe_mb
        self.threads = threads
        self.tuner = tuner
        self.n_probes = 0
        self._in_flight = False
        sim.schedule(0.0, self._probe)

    def _probe_threads(self) -> int:
        """Probes use the autonomic thread plan so they measure the pipe,
        not a single window-limited TCP stream."""
        if self.tuner is not None:
            return max(1, self.tuner.threads_for(self.sim.now))
        return self.threads

    def _probe(self) -> None:
        if not self._in_flight:
            self._in_flight = True
            self.link.start_transfer(
                self.probe_mb, self._probe_threads(), self._on_probe_done, label="probe"
            )
        self.sim.schedule(self.interval_s, self._probe)

    def _on_probe_done(self, transfer: Transfer) -> None:
        self._in_flight = False
        self.n_probes += 1
        mbps = transfer.aggregate_mbps
        if mbps is not None:
            self.estimator.observe(transfer.start_time, mbps)
