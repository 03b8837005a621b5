"""Cost of the determinism gate at scale: double-run-hash on ~1e4 jobs.

``repro check`` verifies bit-for-bit reproducibility by running a seeded
workload twice and hashing every lifecycle timestamp. This bench times
that harness on a workload two orders of magnitude larger than the
default spec (40 batches x ~250 jobs), answering "what would it cost to
gate CI on a *big* determinism check?" and pinning the per-record hash
overhead. The artifact lands in ``benchmarks/results/determinism.txt``.
"""

import time

from repro.analysis.determinism import Cell, Double, hash_trace, run_checks
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_one

#: ~1e4 jobs: 40 Poisson batches of mean 250 jobs at the paper's 3-minute
#: inter-batch interval.
BIG_SPEC = ExperimentSpec(n_batches=40, mean_jobs_per_batch=250.0)

SCHEDULER = "Greedy"


def _double_run_hash():
    t0 = time.perf_counter()
    [result] = run_checks(
        [Double(Cell(SCHEDULER), ("trace",))], spec=BIG_SPEC, invariants=False
    )
    harness_s = time.perf_counter() - t0

    # Isolate the hashing component on one fresh trace.
    trace = run_one(SCHEDULER, BIG_SPEC)
    t0 = time.perf_counter()
    digest = hash_trace(trace)
    hash_s = time.perf_counter() - t0
    assert digest == result.digests["trace"]
    return result, harness_s, hash_s


def test_determinism_harness_scale(benchmark, save_artifact):
    result, harness_s, hash_s = benchmark.pedantic(
        _double_run_hash, rounds=1, iterations=1
    )

    assert result.ok, result.render()
    n_records = result.counts["records"]
    assert n_records >= 10_000

    per_record_us = 1e6 * hash_s / n_records
    lines = [
        f"determinism harness at scale ({SCHEDULER}, "
        f"{BIG_SPEC.n_batches} batches, ~{BIG_SPEC.mean_jobs_per_batch:.0f} "
        "jobs/batch)",
        "",
        result.render().strip(),
        "",
        f"double-run + hash harness : {harness_s:8.2f} s total",
        f"hash_trace alone          : {hash_s * 1e3:8.1f} ms "
        f"({per_record_us:.1f} us/record)",
        f"trace hash                : {result.digests['trace']}",
    ]
    path = save_artifact("determinism.txt", "\n".join(lines))
    assert path.exists()

    # Hashing must stay a rounding error next to the simulation itself,
    # or the gate would be too expensive to leave in CI.
    assert hash_s < harness_s / 10
