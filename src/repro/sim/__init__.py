"""Discrete-event simulation substrate: engine, clusters, network, pipelines."""

from .cluster import Cluster, QueuedWork
from .engine import Event, SimulationError, Simulator
from .environment import CloudBurstEnvironment, ECSiteSpec, SystemConfig
from .faults import OutageInjector, OutageWindow, random_outage_schedule
from .network import CapacityProcess, FluidLink, ProbeService, Transfer, waterfill
from .pipeline import PipelineItem, SizeQueue, TransferPipeline
from .resources import Machine
from .tracing import JobRecord, Placement, RunTrace
from .validation import TraceInvariantError, validate_trace

__all__ = [
    "Simulator", "Event", "SimulationError",
    "Machine", "Cluster", "QueuedWork",
    "CapacityProcess", "FluidLink", "Transfer", "ProbeService", "waterfill",
    "TransferPipeline", "SizeQueue", "PipelineItem",
    "CloudBurstEnvironment", "SystemConfig", "ECSiteSpec",
    "OutageInjector", "OutageWindow", "random_outage_schedule",
    "RunTrace", "JobRecord", "Placement",
    "validate_trace", "TraceInvariantError",
]
