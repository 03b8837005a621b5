"""Experiment runner: replayed workloads across schedulers.

Guarantees of fairness for every comparison in the evaluation:

* all schedulers see the *identical* batch sequence (generated once per
  spec, then replayed);
* every environment is freshly built with the same :class:`SystemConfig`
  seed, so link capacity draws are identical across schedulers;
* every QRSM is fitted on the same training sample before the run.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..core.base import Scheduler
from ..core.bandwidth_splitting import SizeIntervalSplittingScheduler
from ..core.baselines import RandomBurstScheduler, ThresholdScheduler
from ..core.multi_ec import MultiECGreedyScheduler, MultiECOrderPreservingScheduler
from ..core.greedy import GreedyScheduler
from ..core.ic_only import ICOnlyScheduler
from ..econ import EconRuntime
from ..econ.policy import CostAwareScheduler
from ..core.order_preserving import OrderPreservingScheduler
from ..core.ticket_aware import TicketAwareScheduler
from ..sim.environment import CloudBurstEnvironment
from ..sim.tracing import RunTrace
from ..workload.generator import Batch, WorkloadGenerator
from .config import ExperimentSpec

__all__ = ["SCHEDULER_NAMES", "PAPER_SCHEDULERS", "make_scheduler", "run_one", "run_comparison", "build_workload"]

#: Scheduler registry: name -> factory(environment) in paper order.
SCHEDULER_FACTORIES: dict[str, Callable[[CloudBurstEnvironment], Scheduler]] = {
    "ICOnly": lambda env: ICOnlyScheduler(env.estimator),
    "Greedy": lambda env: GreedyScheduler(env.estimator),
    "Op": lambda env: OrderPreservingScheduler(env.estimator),
    "OpSIBS": lambda env: SizeIntervalSplittingScheduler(env.estimator),
    # Multi-cloud variants: on a single-site environment MultiGreedy's trace
    # equals Greedy's and MultiOp's equals Op's without chunking (MultiOp
    # never chunks); they spread bursts when extra_ec_sites are configured.
    "MultiGreedy": lambda env: MultiECGreedyScheduler(env.estimator),
    "MultiOp": lambda env: MultiECOrderPreservingScheduler(env.estimator),
    # Ticket-aware variant: Op plus a per-job promise guard on bursting.
    "TicketOp": lambda env: TicketAwareScheduler(env.estimator),
    # Naive baselines for comparison studies (no learned-model reasoning).
    "RandomBurst": lambda env: RandomBurstScheduler(env.estimator, seed=env.config.seed),
    "Threshold": lambda env: ThresholdScheduler(env.estimator),
    # Economics variant: bursts iff the expected SLA penalty avoided pays
    # the external cloud's invoice. Prices from the attached econ runtime
    # when one exists (run_one's env_hook runs before this factory), else
    # the default cost model.
    "CostAware": lambda env: CostAwareScheduler(
        env.estimator,
        cost_model=(
            econ.cost_model if (econ := env.plugin(EconRuntime)) is not None else None
        ),
    ),
}

#: The paper's four schedulers (Figs. 6-10, Table I).
PAPER_SCHEDULERS = ("ICOnly", "Greedy", "Op", "OpSIBS")

SCHEDULER_NAMES = tuple(SCHEDULER_FACTORIES)


def make_scheduler(name: str, env: CloudBurstEnvironment) -> Scheduler:
    """Instantiate a registered scheduler bound to an environment's models."""
    try:
        factory = SCHEDULER_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {SCHEDULER_NAMES}"
        ) from None
    return factory(env)


def build_workload(spec: ExperimentSpec) -> list[Batch]:
    """The replayable batch sequence for a spec."""
    gen = WorkloadGenerator(bucket=spec.bucket, seed=spec.workload_seed)
    return gen.generate(spec.workload_config())


def training_data(spec: ExperimentSpec):
    """The spec's pinned QRSM training sample (features, observed times).

    Public so alternate front-ends (the online broker's replay path) can
    pretrain an environment identically to :func:`run_one`.
    """
    gen = WorkloadGenerator(bucket=spec.bucket, seed=spec.training_seed)
    return gen.sample_training_set(spec.training_samples)


_training_data = training_data


def run_one(
    scheduler_name: str,
    spec: ExperimentSpec,
    batches: Optional[list[Batch]] = None,
    env_hook: Optional[Callable[[CloudBurstEnvironment], None]] = None,
) -> RunTrace:
    """One complete simulated run of ``scheduler_name`` under ``spec``.

    ``env_hook`` lets ablation benches tweak the freshly built environment
    (e.g. enable rescheduling strategies) before the run starts.
    """
    if batches is None:
        batches = build_workload(spec)
    env = CloudBurstEnvironment(spec.system)
    env.pretrain_qrsm(*_training_data(spec))
    if env_hook is not None:
        env_hook(env)
    scheduler = make_scheduler(scheduler_name, env)
    trace = env.run(batches, scheduler)
    trace.metadata["bucket"] = spec.bucket.value
    return trace


def run_comparison(
    spec: ExperimentSpec,
    scheduler_names: Iterable[str] = PAPER_SCHEDULERS,
) -> dict[str, RunTrace]:
    """Run several schedulers over the identical workload; name -> trace."""
    batches = build_workload(spec)
    return {
        name: run_one(name, spec, batches=batches) for name in scheduler_names
    }
