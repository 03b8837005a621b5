#!/usr/bin/env python3
"""Prove the benchmark steady: run every workload over many seeds.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                               [--traced] [--out FILE] [--compare FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
with ``run_seconds`` from ``BENCHMARK.json``. For each end-to-end metric
it prints the median and the spread, ``(Q3 - Q1) / median`` with the
quartiles of ``statistics.quantiles(values, n=4)``, and flags a spread
above a third of the metric's bound. ``setup_s`` is printed but not
flagged: the benchmark contract holds set-up time to its median only,
because process spawns on a shared machine spread far more between runs
than the work they set up. ``--compare`` checks every median, ``setup_s``
included, against an earlier ``--out`` file: the new one may not be
worse by more than the bound.

``--traced`` adds two traced runs of the first seed per workload; the
second one fails inside ``run.py`` if any exact count differs from the
first, so a passing pair shows the counts repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    documented = {
        "workloads": set(docs["workloads"]),
        "end_to_end": set(docs["end_to_end"]),
        "per_layer": set(docs["per_layer"]).union(
            f"{layer}.{field}" for layer in docs["layers"] for field in docs["layer_fields"]
        ),
    }
    for section, names in documented.items():
        if names != {entry["name"] for entry in bench[section]}:
            raise SystemExit(f"perfbench/metrics.json {section} differ from BENCHMARK.json")
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]
    ]
    seconds = bench["run_seconds"]
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    results: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = run(workload, seed, seconds, 0)
            for name in values:
                values[name].append(out["metrics"][name]["value"])
        results[workload] = values
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            series = values[name]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag, ok = " SPREAD ABOVE BOUND/3", False
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                after = statistics.median(series)
                worse = (before - after) / before if metric["better"] == "higher" else (after - before) / before
                flag += f" vs earlier {worse:+.2%}"
                if worse > bound:
                    flag, ok = flag + " WORSE THAN BOUND", False
            print(
                f"{workload:15s} {name:15s} median {median:12.5g} "
                f"spread {spread:7.2%} (bound/3 {bound / 3:6.2%}){flag}",
                flush=True,
            )
        if args.traced:
            for _ in range(2):
                run(workload, args.first_seed, seconds, 1)
            print(f"{workload:15s} traced twice with seed {args.first_seed}: counts repeat", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
