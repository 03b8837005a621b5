"""Price models for the pay-as-you-go external cloud.

Two price regimes, mirroring the EC2/EMR offerings the paper's prototype
burst to:

* :class:`OnDemandPrice` — flat hourly instance rate plus per-GB transfer
  pricing; the certainty-equivalent baseline every cost comparison uses.
* :class:`SpotPriceProcess` — a seeded lognormal price path sampled on a
  fixed epoch inside the :class:`~repro.sim.engine.Simulator` event loop
  (same epoch-resampling shape as the fluid links' capacity process).

Spot capacity is cheap but revocable: :class:`SpotPreemptionInjector`
subscribes to the price path and, like the outage injector in
:mod:`repro.sim.faults`, *interrupts* the EC pool whenever the market
price crosses above the operator's bid — running jobs are preempted
(losing all progress) and the machines stay offline until the price drops
back below the bid. All randomness comes from the process's own seeded
generator, so runs are bit-for-bit reproducible and — when metering only
(no finite bid) — leave the job trace untouched.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..sim.cluster import Cluster
from ..sim.engine import Simulator

__all__ = [
    "OnDemandPrice",
    "SpotMarketConfig",
    "SpotPriceProcess",
    "SpotPreemptionInjector",
]


@dataclass(frozen=True)
class OnDemandPrice:
    """Flat pay-as-you-go pricing for EC instances and transfer.

    Defaults approximate an EMR m-class instance of the paper's era:
    ~$0.34/hour of instance time plus ~$0.09/GB of data transfer.
    """

    rate_usd_per_hour: float = 0.34
    transfer_usd_per_gb: float = 0.09

    def __post_init__(self) -> None:
        if self.rate_usd_per_hour < 0 or self.transfer_usd_per_gb < 0:
            raise ValueError("prices cannot be negative")

    @property
    def rate_usd_per_s(self) -> float:
        return self.rate_usd_per_hour / 3600.0

    def compute_usd(self, busy_s: float) -> float:
        """Cost of ``busy_s`` seconds of on-demand instance time."""
        return busy_s * self.rate_usd_per_s

    def transfer_usd(self, volume_mb: float) -> float:
        """Cost of moving ``volume_mb`` through the inter-cloud links."""
        return volume_mb / 1024.0 * self.transfer_usd_per_gb


@dataclass(frozen=True)
class SpotMarketConfig:
    """Shape of the spot market: base price, volatility, bid.

    ``bid_usd_per_hour`` is the operator's maximum price; an infinite bid
    (the default) means capacity is never reclaimed — the spot path is
    metered for billing but causes no interruptions, which keeps traces
    identical to the no-econ runs.
    """

    base_usd_per_hour: float = 0.12
    variation: float = 0.35
    epoch_s: float = 60.0
    bid_usd_per_hour: float = float("inf")

    def __post_init__(self) -> None:
        if self.base_usd_per_hour <= 0:
            raise ValueError("base_usd_per_hour must be positive")
        if self.variation < 0:
            raise ValueError("variation cannot be negative")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if self.bid_usd_per_hour <= 0:
            raise ValueError("bid_usd_per_hour must be positive")

    @property
    def preemptible(self) -> bool:
        return self.bid_usd_per_hour != float("inf")


class SpotPriceProcess:
    """Seeded lognormal spot price path on a fixed resampling epoch.

    Each epoch draws ``base * LogNormal(-variation^2 / 2, variation)``
    (unit mean, like the capacity process), floored at 5% of base. The
    path is recorded so billing can price any past instant, and epoch
    listeners let the preemption injector react to crossings. The process
    owns its generator — it never touches the environment's RNG chain, so
    attaching it cannot perturb the workload or link draws.
    """

    def __init__(self, sim: Simulator, market: SpotMarketConfig, seed: int) -> None:
        self.sim = sim
        self.market = market
        self.rng = np.random.default_rng(seed)
        self._listeners: list[Callable[[float], None]] = []
        #: Epoch samples as parallel arrays: times and USD/hour prices.
        self._times: list[float] = [sim.now]
        self._prices: list[float] = [self._draw()]
        sim.schedule(market.epoch_s, self._tick)

    def _draw(self) -> float:
        m = self.market
        if m.variation == 0.0:
            return m.base_usd_per_hour
        factor = self.rng.lognormal(-0.5 * m.variation**2, m.variation)
        return max(0.05 * m.base_usd_per_hour, m.base_usd_per_hour * float(factor))

    def _tick(self) -> None:
        price = self._draw()
        self._times.append(self.sim.now)
        self._prices.append(price)
        for listener in self._listeners:
            listener(price)
        self.sim.schedule(self.market.epoch_s, self._tick)

    def subscribe(self, listener: Callable[[float], None]) -> None:
        """Register an epoch listener, called with each new USD/hour price."""
        self._listeners.append(listener)

    def price_at(self, time_s: float) -> float:
        """USD/hour price in force at ``time_s`` (last epoch at or before)."""
        idx = bisect_right(self._times, time_s) - 1
        return self._prices[max(0, idx)]


class SpotPreemptionInjector:
    """Interrupt the EC pool whenever the spot price exceeds the bid.

    Fault-injection in the :mod:`repro.sim.faults` style, but driven by
    the market instead of a fixed schedule: on an upward bid crossing
    every pool machine is taken offline and any running job is preempted
    back to the front of the queue; on the downward crossing the pool
    comes back and dispatch resumes. ``free_cache`` (the environment's
    busy-machine estimate cache) is invalidated per preempted machine
    because the restarted job is the *same object* the cache is keyed on.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        process: SpotPriceProcess,
        bid_usd_per_hour: float,
        free_cache: Optional[dict] = None,
        on_preempt: Optional[Callable[[object, float], None]] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.bid_usd_per_hour = bid_usd_per_hour
        self.free_cache = free_cache
        self.on_preempt = on_preempt
        self.preemptions = 0
        self.lost_work_s = 0.0
        self.reclaim_events = 0
        self._reclaimed = False
        process.subscribe(self._on_price)

    def _on_price(self, usd_per_hour: float) -> None:
        if usd_per_hour > self.bid_usd_per_hour and not self._reclaimed:
            self._reclaimed = True
            self.reclaim_events += 1
            self._suspend()
        elif usd_per_hour <= self.bid_usd_per_hour and self._reclaimed:
            self._reclaimed = False
            self._resume()

    def _suspend(self) -> None:
        cluster = self.cluster
        # Offline first, then preempt: nothing requeued in the sweep may
        # re-dispatch onto a machine that is about to be reclaimed too.
        machines = list(cluster.machines)
        for machine in machines:
            cluster.take_offline(machine)
        for machine in machines:
            interrupted = cluster.preempt_machine(machine)
            if interrupted is None:
                continue
            item, elapsed_s = interrupted
            self.preemptions += 1
            self.lost_work_s += elapsed_s
            if self.free_cache is not None:
                self.free_cache.pop(machine, None)
            if self.on_preempt is not None:
                self.on_preempt(item, elapsed_s)

    def _resume(self) -> None:
        for machine in list(self.cluster.machines):
            self.cluster.bring_online(machine)
