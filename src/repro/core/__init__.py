"""Cloud-bursting schedulers — the paper's primary contribution."""

from .base import BatchPlan, Decision, EcEstimate, ECSiteState, Scheduler, SystemState
from .bandwidth_splitting import SizeIntervalSplittingScheduler, compute_size_bounds
from .baselines import RandomBurstScheduler, ThresholdScheduler
from .chunking import ChunkPolicy, chunk_batch, pdfchunk, window_sigma
from .estimators import FinishTimeEstimator
from .greedy import GreedyScheduler
from .ic_only import ICOnlyScheduler
from .order_preserving import OrderPreservingScheduler
from .rescheduling import PullCandidate, pick_ec_push, pick_ic_pull
from .slack import SlackLedger, slack_time
from .ticket_aware import TicketAwareScheduler, TicketQuote

__all__ = [
    "Scheduler", "SystemState", "ECSiteState", "BatchPlan", "Decision",
    "ICOnlyScheduler", "GreedyScheduler", "OrderPreservingScheduler",
    "SizeIntervalSplittingScheduler", "compute_size_bounds",
    "FinishTimeEstimator", "EcEstimate",
    "SlackLedger", "slack_time",
    "ChunkPolicy", "chunk_batch", "pdfchunk", "window_sigma",
    "PullCandidate", "pick_ic_pull", "pick_ec_push",
    "TicketAwareScheduler", "TicketQuote",
    "RandomBurstScheduler", "ThresholdScheduler",
]
