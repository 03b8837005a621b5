"""Ablation — multi-cloud bursting (the paper's "where" question).

Section I: "one could possibly choose from a pool of Cloud Providers at
run-time". Compares Op (without chunking) on one site against the same
scheduler given a second provider with its own (independent) pipe, over
the same workload.
A second site adds both compute AND transfer capacity, so under a loaded
IC the multi-cloud run must finish no later and burst at least as much.
"""

import numpy as np

from repro.core.order_preserving import OrderPreservingScheduler
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import build_workload, training_data
from repro.metrics.sla import summarize
from repro.sim.environment import CloudBurstEnvironment, ECSiteSpec, SystemConfig
from repro.workload.distributions import Bucket

SPEC = ExperimentSpec(bucket=Bucket.LARGE, n_batches=5,
                      system=SystemConfig(seed=51))

SECOND_PROVIDER = ECSiteSpec(
    name="provider-b", machines=2, up_base_mbps=3.0, down_base_mbps=4.0,
    peak_hour=14.0,  # different diurnal phase: an overseas region
)


def _run(spec, batches):
    """``run_one``'s environment, driven by Op without chunking."""
    env = CloudBurstEnvironment(spec.system)
    env.pretrain_qrsm(*training_data(spec))
    return env.run(batches, OrderPreservingScheduler(env.estimator, enable_chunking=False))


def _run_pair():
    rows = []
    for seed in (51, 52, 53):
        spec = SPEC.with_seed(seed)
        batches = build_workload(spec)
        single = summarize(_run(spec, batches))
        multi_spec = spec.with_system(extra_ec_sites=(SECOND_PROVIDER,))
        multi = summarize(_run(multi_spec, batches))
        rows.append((seed, single, multi))
    return rows


def test_ablation_multi_ec(benchmark, save_artifact):
    rows = benchmark.pedantic(_run_pair, rounds=1, iterations=1)
    lines = []
    singles, multis, s_burst, m_burst = [], [], [], []
    for seed, single, multi in rows:
        singles.append(single.makespan_s)
        multis.append(multi.makespan_s)
        s_burst.append(single.burst_ratio)
        m_burst.append(multi.burst_ratio)
        lines.append(
            f"seed={seed} single: mk={single.makespan_s:8.1f}s "
            f"burst={single.burst_ratio:.3f} | +provider-b: "
            f"mk={multi.makespan_s:8.1f}s burst={multi.burst_ratio:.3f}"
        )
    save_artifact("ablation_multi_ec.txt", "\n".join(lines))
    assert np.mean(multis) < np.mean(singles)
    assert np.mean(m_burst) > np.mean(s_burst)
