#!/usr/bin/env python3
"""Bursting to a pool of cloud providers — the paper's "where" question.

Section I anticipates that "one could possibly choose from a pool of Cloud
Providers at run-time depending on the input job's service level
agreements". This example adds a second external provider in a different
region (its diurnal bandwidth peaks 10 hours later) and lets the
multi-site Order-Preserving scheduler pick the earliest-completing
provider per job.

Run:  python examples/multi_cloud.py
"""

from collections import Counter

from repro import (
    Bucket,
    CloudBurstEnvironment,
    ECSiteSpec,
    MultiECOrderPreservingScheduler,
    SystemConfig,
    WorkloadConfig,
    WorkloadGenerator,
    summarize,
)


def run(extra_sites, batches, gen, seed=33):
    env = CloudBurstEnvironment(SystemConfig(seed=seed, extra_ec_sites=extra_sites))
    env.pretrain_qrsm(*gen.sample_training_set(300))
    trace = env.run(batches, MultiECOrderPreservingScheduler(env.estimator))
    return env, trace


def main() -> None:
    gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=33)
    batches = gen.generate(
        WorkloadConfig(bucket=Bucket.LARGE, n_batches=6, seed=33)
    )
    print(f"workload: {sum(len(b) for b in batches)} large jobs, "
          f"{sum(b.total_mb for b in batches):.0f} MB\n")

    provider_b = ECSiteSpec(
        name="provider-b", machines=2,
        up_base_mbps=3.0, down_base_mbps=4.0,
        peak_hour=14.0,  # overseas region: pipe peaks mid-afternoon
    )

    env1, single = run((), batches, gen)
    env2, multi = run((provider_b,), batches, gen)

    s1, s2 = summarize(single), summarize(multi)
    print(f"{'':14s} {'makespan':>9} {'speedup':>8} {'burst':>6} {'EC util':>8}")
    print(f"{'one provider':14s} {s1.makespan_s:>9.1f} {s1.speedup:>8.2f} "
          f"{s1.burst_ratio:>6.3f} {100 * s1.ec_util:>7.1f}%")
    print(f"{'two providers':14s} {s2.makespan_s:>9.1f} {s2.speedup:>8.2f} "
          f"{s2.burst_ratio:>6.3f} {100 * s2.ec_util:>7.1f}%")

    # Where did the bursted jobs go?
    sites = Counter(
        env2.sites[st.site].spec.name
        for st in env2._states.values()
        if st.record.placement == "EC"
    )
    print("\nbursted jobs per provider:", dict(sites))
    gain = 100 * (s1.makespan_s - s2.makespan_s) / s1.makespan_s
    print(f"second provider cuts makespan by {gain:.1f}% — each job rides the")
    print("provider whose pipe + pool completes it earliest (ft^ec per site),")
    print("and the slackness constraint still protects queue order.")


if __name__ == "__main__":
    main()
