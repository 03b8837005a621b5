"""Ablation — autonomic elastic EC scaling (Section V.B.4 future work).

Compares a statically over-provisioned EC pool (6 instances) against the
queue-driven autoscaler over the same workload. The paper's policy goal:
"the scaling (at EC) must be just enough to ensure saturation of the
download bandwidth" — i.e. pay for far fewer machine-seconds without
giving back the makespan.
"""

from pathlib import Path

import numpy as np

from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import build_workload, run_one
from repro.policy import attach_policy, load_policy_config
from repro.sim.environment import SystemConfig
from repro.workload.distributions import Bucket

SPEC = ExperimentSpec(bucket=Bucket.LARGE, n_batches=5,
                      system=SystemConfig(seed=91, ec_machines=6))

#: The queue-up / idle-down rule the example runs.
QUEUE_DRIVEN = load_policy_config(
    Path(__file__).resolve().parent.parent / "examples" / "policies"
    / "queue-driven.json"
)


def _run_matrix():
    rows = []
    for seed in (91, 92, 93):
        spec = SPEC.with_seed(seed)
        batches = build_workload(spec)
        static = run_one("Op", spec, batches=batches)
        envs = []

        def hook(env):
            attach_policy(env, QUEUE_DRIVEN)
            envs.append(env)

        elastic = run_one("Op", spec, batches=batches, env_hook=hook)
        steps = elastic.metadata["policy"]["summary"]["steps"]
        rows.append({
            "seed": seed,
            "static_mk": static.makespan,
            "elastic_mk": elastic.makespan,
            "static_cost": 6.0 * (static.end_time - static.arrival_time),
            "elastic_cost": envs[0].ec.rented_machine_seconds,
            "ups": steps["launch"],
            "downs": steps["drain"],
        })
    return rows


def test_ablation_autoscale(benchmark, save_artifact):
    rows = benchmark.pedantic(_run_matrix, rounds=1, iterations=1)
    lines = [
        f"seed={r['seed']} static mk={r['static_mk']:7.1f}s "
        f"cost={r['static_cost']:8.0f}ms | elastic mk={r['elastic_mk']:7.1f}s "
        f"cost={r['elastic_cost']:8.0f}ms (ups={r['ups']}, downs={r['downs']})"
        for r in rows
    ]
    save_artifact("ablation_autoscale.txt", "\n".join(lines))
    # At least 20% of the rented machine-seconds saved on average...
    saving = 1 - np.mean([r["elastic_cost"] for r in rows]) / np.mean(
        [r["static_cost"] for r in rows]
    )
    assert saving > 0.20
    # ...with makespan within 10% of the over-provisioned static pool.
    assert np.mean([r["elastic_mk"] for r in rows]) <= np.mean(
        [r["static_mk"] for r in rows]
    ) * 1.10
