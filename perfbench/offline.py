"""The ``offline_replay`` workload: the paper's experiments through ``run_one``.

The seed generates a set of LARGE-bucket workloads (the Figs. 8-10
bucket, where bursting matters most); each one is replayed through all
four paper schedulers with :func:`repro.experiments.runner.run_one`, the
entry point the experiment and figure code drives. Several short
workloads instead of one long one keep ``jobs_per_s`` from depending on
the queue depth one seed happens to reach.

``python3 -m perfbench.offline --seed N --seconds S`` is the set-up
probe: it imports the program, builds the workloads and prints ``ready``.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace
from typing import Any

#: Batches per workload; one workload takes about 0.6 s through the four
#: paper schedulers on a 2-core x86 container.
N_BATCHES = 40

#: Workloads per second of ``--seconds``.
WORKLOADS_PER_S = 1.6


def build(seed: int, seconds: int) -> list[tuple[Any, list[Any]]]:
    """The (spec, batches) pairs one run replays, a pure function of its args."""
    from repro.experiments.config import DEFAULT_SPEC
    from repro.experiments.runner import build_workload
    from repro.workload.distributions import Bucket

    base = replace(DEFAULT_SPEC.with_bucket(Bucket.LARGE), n_batches=N_BATCHES)
    out = []
    for k in range(max(1, round(seconds * WORKLOADS_PER_S))):
        spec = replace(base, workload_seed=seed * 1000 + k)
        out.append((spec, build_workload(spec)))
    return out


def replay(workloads: list[tuple[Any, list[Any]]]) -> dict[str, Any]:
    """Replay every workload through the four paper schedulers.

    Returns when each ``run_one`` call started, its wall seconds and job
    records, when the last one ended and, per scheduler, the
    ``hash_trace`` digest of every run in order.
    """
    from repro.analysis.determinism import hash_trace
    from repro.experiments.runner import PAPER_SCHEDULERS, run_one

    starts: list[float] = []
    walls: list[float] = []
    records: list[int] = []
    digests: dict[str, list[str]] = {name: [] for name in PAPER_SCHEDULERS}
    for spec, batches in workloads:
        for name in PAPER_SCHEDULERS:
            starts.append(time.perf_counter())
            trace = run_one(name, spec, batches=batches)
            walls.append(time.perf_counter() - starts[-1])
            records.append(len(trace.records))
            digests[name].append(hash_trace(trace))
    end = time.perf_counter()
    return {
        "starts": starts,
        "walls": walls,
        "records": records,
        "end": end,
        "digests": digests,
        "wall_s": end - starts[0],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    build(args.seed, args.seconds)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
