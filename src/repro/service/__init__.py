"""Online cloud-bursting broker: SLA quoting, admission control, serving.

The subsystem that turns the offline reproduction into an *online* system:

* :mod:`repro.service.quotes` — per-arrival SLA quotes from the learned
  QRSM and bandwidth models;
* :mod:`repro.service.policy` — configurable admission control
  (accept / accept-degraded / reject) built on the ticket machinery;
* :mod:`repro.service.broker` — the virtual-clock broker that interleaves
  external arrivals with in-flight simulation events;
* :mod:`repro.service.replay` — offline-workload replay, trace-identical
  to the offline runner under the accept-all policy;
* :mod:`repro.service.loadgen` — open-loop Poisson/bursty load driver for
  throughput and quote-latency measurement.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".broker": ("BurstBroker", "SubmissionOutcome"),
    ".loadgen": (
        "LoadGenConfig", "LoadGenResult", "SubmissionTiming", "arrival_schedule",
        "drive_arrivals", "generate_arrivals", "run_load",
    ),
    ".policy": ("AdmissionDecision", "AdmissionResult", "SLAPolicy"),
    ".quotes": ("SLAQuote", "quote_job"),
    ".replay": ("replay_workload", "run_one_online"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "BurstBroker", "SubmissionOutcome",
    "AdmissionDecision", "AdmissionResult", "SLAPolicy",
    "SLAQuote", "quote_job",
    "replay_workload", "run_one_online",
    "LoadGenConfig", "LoadGenResult", "SubmissionTiming",
    "arrival_schedule", "drive_arrivals", "generate_arrivals", "run_load",
]
