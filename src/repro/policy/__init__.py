"""repro.policy — declarative convergence autoscaler.

The paper defers the EC scaling policy to future work (Section V.B.4);
this package answers with the convergence model production autoscalers
settled on. Three layers:

* **policy plane** (:mod:`~repro.policy.model`) — frozen
  :class:`ScalingPolicy` values (queue/idle/SLA/cost/scheduled/webhook
  triggers; target or step actions; sustain + cooldown damping) composed
  into a :class:`PolicySet` with a deterministic winner rule, loadable
  from JSON/TOML (:mod:`~repro.policy.loader`);
* **convergence plane** (:mod:`~repro.policy.converge`) — a
  :class:`Converger` that each virtual-clock interval diffs desired
  capacity against observed pool state (online/offline/draining/pending)
  and emits idempotent launch/drain/delete steps with bounded retry,
  auditing every decision;
* **integration plane** (:mod:`~repro.policy.runtime`, plus hooks in
  sim/econ/fleet/obs/cli) — :func:`attach_policy` arms a converger on
  one environment; the audit log lands in unhashed
  ``trace.metadata["policy"]`` and the ``repro check`` policy pass
  double-runs it.
"""

from .converge import (
    STEP_KINDS,
    ConvergenceDecision,
    Converger,
    ConvergerConfig,
    StepRecord,
)
from .loader import (
    PolicySchemaError,
    config_to_dict,
    dump_policy_config,
    load_policy_config,
    parse_policy_config,
)
from .model import (
    ACTION_KINDS,
    TRIGGER_KINDS,
    CapacityObservation,
    PolicyInput,
    PolicySet,
    ScalingPolicy,
)
from .runtime import PolicyConfig, PolicyRuntime, attach_policy

__all__ = [
    "ACTION_KINDS",
    "STEP_KINDS",
    "TRIGGER_KINDS",
    "CapacityObservation",
    "ConvergenceDecision",
    "Converger",
    "ConvergerConfig",
    "PolicyConfig",
    "PolicyInput",
    "PolicyRuntime",
    "PolicySchemaError",
    "PolicySet",
    "ScalingPolicy",
    "StepRecord",
    "attach_policy",
    "config_to_dict",
    "dump_policy_config",
    "load_policy_config",
    "parse_policy_config",
]
