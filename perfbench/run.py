#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json`` with no instrumentation. ``--trace 1``
runs the same work twice in this process, plain and then with the layer
wrappers of ``perfbench/tracing.py`` installed, and reports the
per-layer metrics; HTTP workloads then host the server on a thread of
this process so one span buffer sees both sides. Every metric is printed
as ``name = value unit``; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``perfbench/metrics.json`` says what each metric measures
and which metric each layer should move. Before it exits, a run waits
for every process it started, the orphans of its servers included.

``BENCHMARK.json`` lists the two HTTP workloads. ``offline_replay`` (the
paper's experiments through ``run_one``) runs the same way but is not
listed: its CPU-bound figures move too much between runs on a shared
2-vCPU machine for the bounds the benchmark may set.

Checks, each of which fails the run (exit status 1):

* output: every scheduler's ``hash_trace`` digests (offline) or the
  drained ``fleet_sha256`` (HTTP) equal the digests recorded in
  ``perfbench/expected.json`` for that seed and length, or, for any
  other seed, those of the first run of the same seed in this checkout
  (kept under ``.perfbench/``);
* traffic: ``http_nominal`` admits at least 90% of its jobs,
  ``http_overload`` sheds at least 90% as ``in_system``, every POST
  ``/v1/jobs`` was stamped with the arrival time it sent, and the
  drained report counts exactly the jobs the client submitted;
* counts (traced runs): the exact layer counts repeat those of the first
  traced run of the same seed, and the layer self times plus the
  unattributed time add up to the traced wall time.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("offline_replay", "http_nominal", "http_overload")

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 5

#: Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = (
    "sim.engine.events",
    "sim.engine.compactions",
    "sim.environment.build_state.calls",
    "service.quotes.calls",
    "models.qrsm.calls",
    "fleet.api.requests",
    "fleet.executor.round_trips",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def windowed_rate(starts: list[float], units: list[int], end: float, window: int) -> float:
    """Median over consecutive windows of ``window`` cycles of units per wall second.

    A window runs from the start of its first cycle to the start of the
    next window (or ``end``), so it counts every cycle in it and the
    client time between them. Host contention on a shared machine slows
    the windows it falls in; a slower program slows every window.
    """
    rates = []
    for i in range(0, max(1, len(starts) - window + 1), window):
        j = min(i + window, len(starts))
        stop = starts[j] if j < len(starts) else end
        rates.append(sum(units[i:j]) / (stop - starts[i]))
    return statistics.median(rates)


def slowest_tenth_mean(values: list[float]) -> float:
    """Mean of the slowest tenth of ``values``."""
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(1, round(len(ordered) / 10)):])


def windowed(values: list[float], stat: Callable[[list[float]], float], window: int = 50) -> float:
    """Median over consecutive windows of ``window`` samples of ``stat`` of each.

    The served fleet's request times fall into modes 4 ms apart (the
    kernel timer tick behind the TCP delayed ACK), so a percentile jumps
    a whole mode when a few requests change sides; means move smoothly.
    A few seconds of host contention move only the windows they fall in,
    while a slower program moves every window.
    """
    windows = [values[i:i + window] for i in range(0, len(values) - window + 1, window)]
    return statistics.median(stat(w) for w in windows or [values])


def latency_line(what: str, values: list[float]) -> str:
    return (
        f"{what}: {len(values)} requests, p50 {1e3 * percentile(values, 50):.3f} ms, "
        f"p90 {1e3 * percentile(values, 90):.3f} ms, p99 {1e3 * percentile(values, 99):.3f} ms"
    )


class Checks:
    """Failed output and traffic checks of one run."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)


def _recorded(kind: str, key: str, values: dict[str, Any]) -> dict[str, Any]:
    """The values on record for ``key``: checked in, else the first run's."""
    if kind == "digests":
        checked_in = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        if key in checked_in:
            return checked_in[key]
    cache = OUT / kind / (key.replace("/", "_") + ".json")
    if cache.exists():
        return json.loads(cache.read_text())
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(values, sort_keys=True, indent=1))
    return values


def check_recorded(kind: str, key: str, values: dict[str, Any], checks: Checks) -> int:
    """Compare ``values`` with the record; returns the number that differ."""
    recorded = _recorded(kind, key, values)
    bad = [name for name in sorted(values) if values[name] != recorded.get(name)]
    for name in bad:
        checks.require(
            False, f"{kind} {key} {name}: {values[name]} != recorded {recorded.get(name)}"
        )
    return len(bad)


# ----------------------------------------------------------------------
# offline_replay
# ----------------------------------------------------------------------
def _offline_setup_s(seed: int, seconds: int) -> float:
    """Process start until the workloads are built, in a fresh interpreter."""
    from perfbench.served import child_env

    t0 = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, "-m", "perfbench.offline",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, env=child_env(ROOT), stdout=subprocess.PIPE, text=True,
    )
    assert probe.stdout is not None
    line = probe.stdout.readline().strip()
    elapsed = time.perf_counter() - t0
    probe.stdout.close()
    if probe.wait() != 0 or line != "ready":
        raise RuntimeError(f"offline set-up probe failed: {line!r}")
    return elapsed


def _offline_digests(result: dict[str, Any]) -> dict[str, str]:
    return {
        name: hashlib.sha256("\n".join(hashes).encode()).hexdigest()
        for name, hashes in result["digests"].items()
    }


def offline_run(seed: int, seconds: int, trace: bool, checks: Checks) -> tuple[dict[str, float], int, int]:
    from perfbench import offline, procstat

    setup_s = [] if trace else [_offline_setup_s(seed, seconds) for _ in range(SETUPS)]
    workloads = offline.build(seed, seconds)
    if trace:
        # Both passes of a traced run replay the first half, which keeps
        # the run inside its time limit on a slow machine.
        workloads = workloads[: max(1, len(workloads) // 2)]
    key = f"offline_replay/seed={seed}/workloads={len(workloads)}"
    plain = offline.replay(workloads)
    attempted = len(plain["walls"])
    failed = check_recorded("digests", key, _offline_digests(plain), checks)
    print(
        f"replayed {len(workloads)} workloads x {len(plain['digests'])} schedulers: "
        f"{sum(plain['records'])} job records in {plain['wall_s']:.3f} s"
    )
    if not trace:
        return {
            # A window is one workload through the four schedulers.
            "jobs_per_s": windowed_rate(plain["starts"], plain["records"], plain["end"], 4),
            "submit_mean_ms": 1e3 * windowed(plain["walls"], statistics.fmean),
            "peak_rss_mb": procstat.peak_rss_mb(),
            "setup_s": statistics.median(setup_s),
        }, attempted, failed

    from perfbench.tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = offline.replay(workloads)
    finally:
        tracer.uninstall()
    attempted += len(traced["walls"])
    failed += check_recorded("digests", key, _offline_digests(traced), checks)
    metrics = layer_metrics(tracer, plain["wall_s"])
    metrics["sim.engine.events"] = tracer.sim_events
    metrics["sim.engine.compactions"] = tracer.sim_compactions
    failed += check_counts(key, metrics, checks)
    tracer.write(OUT / "spans" / "offline_replay")
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# http_nominal / http_overload
# ----------------------------------------------------------------------
def traffic(workload: str, load: Any, report: dict[str, Any], horizon_s: float, checks: Checks) -> int:
    """Record the run's traffic and check it stayed in its regime."""
    stats = report["stats"]
    submitted = stats["submitted"]
    admitted = stats["accepted"] + stats["accepted_degraded"]
    rejections = stats["rejections_by_reason"]
    scored = stats["sla_met"] + stats["sla_violated"]
    admitted_ratio = admitted / submitted if submitted else 0.0
    shed_ratio = rejections.get("in_system", 0) / submitted if submitted else 0.0
    print(
        f"traffic {workload}: {load.attempted} requests, {submitted} jobs, "
        f"admitted_ratio {admitted_ratio:.4f}, rejections {rejections}, "
        f"sla_attainment {stats['sla_met'] / scored if scored else 1.0:.4f}, "
        f"virtual horizon {horizon_s:.1f} s"
    )
    checks.require(not load.errors, f"{len(load.errors)} requests failed: {load.errors[:3]}")
    checks.require(load.unstamped == 0, f"{load.unstamped} submissions lost their arrival_time_s")
    checks.require(submitted == load.jobs, f"report counts {submitted} jobs, client sent {load.jobs}")
    checks.require(not report["lost_shards"], f"lost shards {report['lost_shards']}")
    if workload == "http_nominal":
        checks.require(admitted_ratio >= 0.9, f"admitted ratio {admitted_ratio:.4f} < 0.9")
    else:
        checks.require(shed_ratio >= 0.9, f"in_system shed ratio {shed_ratio:.4f} < 0.9")
    return len(load.errors)


def _engine_counts(report: Any) -> tuple[int, int]:
    families = report.obs.snapshot()["families"]

    def total(name: str) -> int:
        series = families.get(name, {}).get("series", [])
        return int(sum(value for _, value in series))

    return (
        total("repro_engine_events_processed"),
        total("repro_engine_heap_compactions"),
    )


def http_run(workload: str, seed: int, seconds: int, trace: bool, checks: Checks) -> tuple[dict[str, float], int, int]:
    from perfbench import served

    shape = served.SHAPES[workload]
    sched = served.schedule(shape, seed, seconds)
    horizon_s = sched[-1][0]
    key = f"{workload}/seed={seed}/seconds={seconds}"
    if not trace:
        run = served.run_subprocess(ROOT, shape, sched, OUT / "server", SETUPS)
        load = run.load
        failed = traffic(workload, load, run.report, horizon_s, checks)
        failed += check_recorded("digests", key, {"fleet_sha256": run.report["fleet_sha256"]}, checks)
        print(f"drain {run.drain_s:.3f} s; set-ups {[round(s, 3) for s in run.setup_s]} s")
        print(latency_line("POST /v1/jobs", load.submit_s))
        if load.quote_s:
            print(latency_line("POST /v1/quotes", load.quote_s))
        return {
            "jobs_per_s": windowed_rate(load.cycle_start, load.cycle_jobs, load.end, 50),
            "submit_mean_ms": 1e3 * windowed(load.submit_s, statistics.fmean),
            "peak_rss_mb": run.peak_rss_mb,
            "setup_s": statistics.median(run.setup_s),
        }, load.attempted, failed

    from perfbench.tracing import Tracer

    plain = served.run_in_thread(shape, sched)
    tracer = Tracer()
    traced = served.run_in_thread(shape, sched, tracer)
    attempted = failed = 0
    for run in (plain, traced):
        report = run.report.as_dict()
        attempted += run.load.attempted
        failed += traffic(workload, run.load, report, horizon_s, checks)
        failed += check_recorded("digests", key, {"fleet_sha256": report["fleet_sha256"]}, checks)
    metrics = layer_metrics(tracer, plain.wall_s)
    metrics["sim.engine.events"], metrics["sim.engine.compactions"] = _engine_counts(traced.report)
    # Worker-side time comes from the workers' own CPU histogram; the
    # rest of each request-path round trip is IPC.
    ops = ("submit", "account", "quote")
    call_s = sum(tracer.total(f"MultiprocessExecutor.call[{op}]") for op in ops)
    worker_s = sum(traced.worker_cpu_s.get(op, 0.0) for op in ops)
    metrics["fleet.executor.ipc_s"] = call_s - worker_s
    metrics["fleet.executor.worker_s"] = worker_s
    # The request tail follows host CPU steal more than program time on a
    # shared machine, so it is reported here, without a bound.
    metrics["fleet.api.submit_tail_ms"] = 1e3 * windowed(plain.load.submit_s, slowest_tenth_mean)
    if plain.load.quote_s:
        metrics["fleet.api.quote_mean_ms"] = 1e3 * windowed(plain.load.quote_s, statistics.fmean)
        metrics["fleet.api.quote_tail_ms"] = 1e3 * windowed(plain.load.quote_s, slowest_tenth_mean)
    failed += check_counts(key, metrics, checks)
    tracer.write(OUT / "spans" / workload)
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Any, plain_wall_s: float) -> dict[str, float]:
    """Per-layer calls, self time and share, plus the named inclusive times."""
    metrics: dict[str, float] = {}
    layers = tracer.layer_totals()
    for layer, entry in layers.items():
        for field in ("calls", "self_s", "share"):
            metrics[f"{layer}.{field}"] = entry[field]
    wall = tracer.wall_s
    other = wall - sum(entry["self_s"] for entry in layers.values())
    metrics["other.self_s"] = other
    metrics["other.share"] = other / wall
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = wall / plain_wall_s
    metrics["trace.spans"] = len(tracer.span_id)
    for name in ("ICOnly", "Greedy", "Op", "OpSIBS"):
        metrics[f"core.{name}.run_s"] = tracer.total(f"run_one[{name}]")
    metrics["fleet.api.requests"] = tracer.count("FleetClient.submit") + tracer.count("FleetClient.quote")
    metrics["fleet.api.submit_tail_ms"] = 0.0
    metrics["fleet.api.quote_mean_ms"] = 0.0
    metrics["fleet.api.quote_tail_ms"] = 0.0
    metrics["fleet.executor.round_trips"] = layers["fleet.executor"]["calls"]
    metrics["fleet.executor.ipc_s"] = 0.0
    metrics["fleet.executor.worker_s"] = 0.0
    metrics["fleet.drain.sim_s"] = tracer.total("BrokerShard.finish")
    metrics["fleet.drain.aggregate_s"] = tracer.total("aggregate_shards")
    metrics["fleet.drain.drain_s"] = tracer.total("FleetManager.finish")
    metrics["setup.pretrain_s"] = tracer.total("CloudBurstEnvironment.pretrain_qrsm")
    metrics["setup.spawn_s"] = tracer.total("make_executor")
    print(
        f"accounting: layer self times {wall - other:.4f} s + other {other:.4f} s "
        f"= traced wall {wall:.4f} s; overhead ratio {wall / plain_wall_s:.3f}"
    )
    return metrics


def check_counts(key: str, metrics: dict[str, float], checks: Checks) -> int:
    failed = check_recorded(
        "counts", key, {name: metrics[name] for name in EXACT_COUNTS}, checks
    )
    # Self times add up to the wall by construction unless spans overlap
    # (a span outliving its parent); a negative remainder shows that.
    other = metrics["other.self_s"]
    checks.require(other >= -1e-6 * metrics["trace.wall_s"], f"spans overlap: other.self_s = {other}")
    return failed


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds like an error, so fleets drain and workers stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import procstat

    # Every process this run started, the servers' orphans included, has
    # ended before the run does.
    procstat.become_subreaper()
    atexit.register(procstat.stop_children)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    checks = Checks()
    if args.workload == "offline_replay":
        metrics, attempted, failed = offline_run(args.seed, args.seconds, bool(args.trace), checks)
    else:
        metrics, attempted, failed = http_run(
            args.workload, args.seed, args.seconds, bool(args.trace), checks
        )
    listed = {entry["name"] for entry in wanted}
    for name, value in metrics.items():
        if name not in listed:
            print(f"{name} = {value:.6g} (not listed in BENCHMARK.json)")
    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        print(f"{entry['name']} = {value:.6g} {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
