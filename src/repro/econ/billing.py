"""Billing meters — turning machine time into invoiced dollars.

Cloud providers do not bill the seconds you used; they bill the *billable
quantum* you occupied — EMR of the paper's era rounded every instance up
to a full hour, modern EC2 bills per second. :class:`BillingMeter`
supports both through ``quantum_s`` and accrues into the run's
:class:`~repro.econ.penalties.CostLedger` under one of two models:

* ``"busy"`` — usage billing: each completed EC execution is invoiced for
  its ``exec_start → exec_end`` interval, rounded up to whole quantums
  and priced per-quantum (spot path when a spot market is attached,
  on-demand otherwise). Work lost to preemption is *not* billed — the
  provider reclaimed the instance.
* ``"pool"`` — rental billing: every machine in the watched cluster runs
  a rental session from the moment it joins the pool to the moment it
  retires (or the run ends), invoiced whether busy or idle. This is the
  model that makes :mod:`repro.policy` scaling decisions visible as
  money, wired through the cluster's machine lifecycle hooks.
"""

from __future__ import annotations

import math
from typing import Optional

from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from ..sim.resources import Machine
from ..sim.tracing import JobRecord, Placement
from .penalties import CostLedger
from .pricing import OnDemandPrice, SpotPriceProcess

__all__ = ["BillingMeter"]


class BillingMeter:
    """Accrues machine cost into a ledger against a billable quantum."""

    def __init__(
        self,
        ledger: CostLedger,
        on_demand: OnDemandPrice,
        quantum_s: float = 1.0,
        mode: str = "busy",
        spot: Optional[SpotPriceProcess] = None,
    ) -> None:
        if quantum_s <= 0:
            raise ValueError("quantum_s must be positive")
        if mode not in ("busy", "pool"):
            raise ValueError("mode must be 'busy' or 'pool'")
        self.ledger = ledger
        self.on_demand = on_demand
        self.quantum_s = quantum_s
        self.mode = mode
        self.spot = spot
        self._sim: Optional[Simulator] = None
        self._sessions: dict[Machine, float] = {}

    # ------------------------------------------------------------------
    # Shared quantised invoicing
    # ------------------------------------------------------------------
    def bill_interval(self, start_s: float, end_s: float) -> float:
        """Invoice one occupied interval, rounded up to whole quantums.

        Priced at the spot market's epoch price sampled per quantum when a
        spot process is attached, at the flat on-demand rate otherwise.
        Returns the USD amount accrued.
        """
        if end_s <= start_s:
            return 0.0
        n_quantums = int(math.ceil((end_s - start_s) / self.quantum_s - 1e-9))
        n_quantums = max(1, n_quantums)
        self.ledger.billed_quantums += n_quantums
        if self.spot is None:
            usd = self.on_demand.compute_usd(n_quantums * self.quantum_s)
            self.ledger.on_demand_usd += usd
            return usd
        usd = 0.0
        quantum_hours = self.quantum_s / 3600.0
        for k in range(n_quantums):
            rate = self.spot.price_at(start_s + k * self.quantum_s)
            usd += rate * quantum_hours
        self.ledger.spot_usd += usd
        return usd

    # ------------------------------------------------------------------
    # "busy" mode: invoice completed EC executions
    # ------------------------------------------------------------------
    def on_record_complete(self, record: JobRecord) -> None:
        """Usage-billing hook: invoice the EC execution of a record."""
        if self.mode != "busy":
            return
        if record.placement != Placement.EC:
            return
        if record.exec_start is None or record.exec_end is None:
            return
        self.bill_interval(record.exec_start, record.exec_end)

    # ------------------------------------------------------------------
    # "pool" mode: rental sessions over cluster lifecycle events
    # ------------------------------------------------------------------
    def watch(self, cluster: Cluster) -> None:
        """Open rental sessions for the pool and follow its lifecycle."""
        if self.mode != "pool":
            return
        self._sim = cluster.sim
        for machine in cluster.machines:
            self._open_session(machine)
        cluster.on_machine_added = self._open_session
        cluster.on_machine_removed = self._close_session

    def _open_session(self, machine: Machine) -> None:
        assert self._sim is not None
        self._sessions.setdefault(machine, self._sim.now)

    def _close_session(self, machine: Machine) -> None:
        assert self._sim is not None
        start_s = self._sessions.pop(machine, None)
        if start_s is not None:
            self.bill_interval(start_s, self._sim.now)

    def close_all(self, end_s: float) -> None:
        """Invoice every still-open rental session at run end."""
        for machine, start_s in sorted(
            self._sessions.items(), key=lambda kv: (kv[1], kv[0].name)
        ):
            self.bill_interval(start_s, end_s)
        self._sessions.clear()
