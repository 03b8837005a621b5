"""repro — reproduction of "Optimizing Service Level Agreements for
Autonomic Cloud Bursting Schedulers" (Kailasam et al., ICPP 2010).

A discrete-event hybrid-cloud simulator plus the paper's three autonomic
cloud-bursting schedulers and their learned system models.

Quickstart
----------
>>> from repro import (SystemConfig, CloudBurstEnvironment, WorkloadConfig,
...                    WorkloadGenerator, Bucket, GreedyScheduler,
...                    FinishTimeEstimator, summarize)
>>> gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=7)
>>> batches = gen.generate(WorkloadConfig(bucket=Bucket.UNIFORM, n_batches=2, seed=7))
>>> env = CloudBurstEnvironment(SystemConfig(seed=7))
>>> env.pretrain_qrsm(*gen.sample_training_set(300))
>>> trace = env.run(batches, GreedyScheduler(env.estimator))
>>> summarize(trace).speedup > 1.0
True
"""

import os

# One OpenBLAS thread per process, set before anything in repro imports
# numpy. The QRSM's 400x45 least-squares fit gains nothing from a thread
# pool, and on a 2-vCPU host the pool's warm-up stalls the first fits of
# a fresh process for up to ~185 ms each: every spawned shard worker
# pretrains at boot. Spawned workers inherit the environment; an
# explicit value still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._lazy import lazy_exports

_EXPORTS = {
    ".common": ("Placement",),
    ".core.base": ("BatchPlan", "Decision", "Scheduler", "SystemState"),
    ".core.bandwidth_splitting": ("SizeIntervalSplittingScheduler",),
    ".core.chunking": ("ChunkPolicy",),
    ".core.estimators": ("FinishTimeEstimator",),
    ".core.greedy": ("GreedyScheduler",),
    ".core.ic_only": ("ICOnlyScheduler",),
    ".core.order_preserving": ("OrderPreservingScheduler",),
    ".core.slack": ("SlackLedger", "slack_time"),
    ".core.ticket_aware": ("TicketAwareScheduler", "TicketQuote"),
    ".metrics.oo": ("OOSeries", "ordered_data_series", "relative_oo_difference"),
    ".metrics.series": ("completion_series", "peak_stats"),
    ".metrics.report": ("ComparisonReport", "build_report"),
    ".metrics.tickets": (
        "FixedSlaTicket", "ProportionalTicket", "ticket_compliance", "ticket_report",
    ),
    ".metrics.sla": (
        "SLASummary", "burst_ratio", "ec_utilization", "ic_utilization",
        "makespan", "speedup", "summarize",
    ),
    ".metrics.streaming": ("ReservoirSampler", "StreamingSLAStats"),
    ".models.bandwidth": ("DiurnalBandwidthProfile", "TimeOfDayBandwidthEstimator"),
    ".models.qrsm": ("QuadraticResponseSurface",),
    ".models.threads": ("ThreadTuner",),
    ".service.broker": ("BurstBroker", "SubmissionOutcome"),
    ".service.loadgen": ("LoadGenConfig", "LoadGenResult", "run_load"),
    ".service.policy": ("AdmissionDecision", "AdmissionResult", "SLAPolicy"),
    ".service.quotes": ("SLAQuote", "quote_job"),
    ".service.replay": ("replay_workload", "run_one_online"),
    ".sim.engine": ("Simulator",),
    ".sim.environment": ("CloudBurstEnvironment", "ECSiteSpec", "SystemConfig"),
    ".sim.faults": ("OutageInjector", "OutageWindow"),
    ".sim.tracing": ("JobRecord", "RunTrace"),
    ".sim.validation": ("validate_trace",),
    ".workload.distributions": ("Bucket", "bucket_distribution"),
    ".workload.document": ("DocumentFeatures", "Job", "JobType"),
    ".workload.generator": ("Batch", "WorkloadConfig", "WorkloadGenerator"),
    ".workload.processing": ("GroundTruthProcessingModel",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    # core
    "Scheduler", "SystemState", "BatchPlan", "Decision",
    "ICOnlyScheduler", "GreedyScheduler", "OrderPreservingScheduler",
    "SizeIntervalSplittingScheduler", "FinishTimeEstimator",
    "TicketAwareScheduler", "TicketQuote",
    "SlackLedger", "slack_time", "ChunkPolicy",
    # models
    "QuadraticResponseSurface", "DiurnalBandwidthProfile",
    "TimeOfDayBandwidthEstimator", "ThreadTuner",
    # sim
    "Simulator", "CloudBurstEnvironment", "SystemConfig", "ECSiteSpec",
    "RunTrace", "JobRecord", "Placement", "validate_trace",
    "OutageInjector", "OutageWindow",
    # workload
    "Bucket", "bucket_distribution", "DocumentFeatures", "Job", "JobType",
    "WorkloadGenerator", "WorkloadConfig", "Batch",
    "GroundTruthProcessingModel",
    # metrics
    "summarize", "SLASummary", "makespan", "speedup",
    "ic_utilization", "ec_utilization", "burst_ratio",
    "ordered_data_series", "relative_oo_difference", "OOSeries",
    "completion_series", "peak_stats",
    "ticket_compliance", "ticket_report", "FixedSlaTicket", "ProportionalTicket",
    "build_report", "ComparisonReport",
    "ReservoirSampler", "StreamingSLAStats",
    # service (online broker)
    "BurstBroker", "SubmissionOutcome",
    "AdmissionDecision", "AdmissionResult", "SLAPolicy",
    "SLAQuote", "quote_job",
    "replay_workload", "run_one_online",
    "LoadGenConfig", "LoadGenResult", "run_load",
]
