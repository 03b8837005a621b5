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

from .core.base import BatchPlan, Decision, Scheduler, SystemState
from .core.bandwidth_splitting import SizeIntervalSplittingScheduler
from .core.chunking import ChunkPolicy
from .core.estimators import FinishTimeEstimator
from .core.greedy import GreedyScheduler
from .core.ic_only import ICOnlyScheduler
from .core.multi_ec import MultiECGreedyScheduler, MultiECOrderPreservingScheduler
from .core.order_preserving import OrderPreservingScheduler
from .core.slack import SlackLedger, slack_time
from .core.ticket_aware import TicketAwareScheduler, TicketQuote
from .metrics.oo import OOSeries, ordered_data_series, relative_oo_difference
from .metrics.series import completion_series, peak_stats
from .metrics.report import ComparisonReport, build_report
from .metrics.tickets import (
    FixedSlaTicket,
    ProportionalTicket,
    ticket_compliance,
    ticket_report,
)
from .metrics.sla import (
    SLASummary,
    burst_ratio,
    ec_utilization,
    ic_utilization,
    makespan,
    speedup,
    summarize,
)
from .models.bandwidth import DiurnalBandwidthProfile, TimeOfDayBandwidthEstimator
from .models.qrsm import QuadraticResponseSurface
from .models.threads import ThreadTuner
from .metrics.streaming import ReservoirSampler, StreamingSLAStats
from .service import (
    AdmissionDecision,
    AdmissionResult,
    BurstBroker,
    LoadGenConfig,
    LoadGenResult,
    SLAPolicy,
    SLAQuote,
    SubmissionOutcome,
    quote_job,
    replay_workload,
    run_load,
    run_one_online,
)
from .sim.engine import Simulator
from .sim.environment import CloudBurstEnvironment, ECSiteSpec, SystemConfig
from .sim.faults import OutageInjector, OutageWindow
from .sim.tracing import JobRecord, Placement, RunTrace
from .sim.validation import validate_trace
from .workload.distributions import Bucket, bucket_distribution
from .workload.document import DocumentFeatures, Job, JobType
from .workload.generator import Batch, WorkloadConfig, WorkloadGenerator
from .workload.processing import GroundTruthProcessingModel

__version__ = "1.0.0"

__all__ = [
    # core
    "Scheduler", "SystemState", "BatchPlan", "Decision",
    "ICOnlyScheduler", "GreedyScheduler", "OrderPreservingScheduler",
    "SizeIntervalSplittingScheduler", "FinishTimeEstimator",
    "MultiECGreedyScheduler", "MultiECOrderPreservingScheduler",
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
