"""The served-fleet workloads: ``http_nominal`` and ``http_overload``.

Load shape: one process, one thread, one keep-alive connection through
:class:`repro.fleet.client.FleetClient`. The driver is a closed loop —
every call waits for its reply — but every POST ``/v1/jobs`` carries an
``arrival_time_s`` from a seeded open-loop virtual schedule (compound
Poisson per shard, mean burst of 8 jobs), so the simulated cloud sees
open-loop arrivals whatever the wall-clock pace. ``run_client_load`` is
not used because it sends no arrival times, which would hold every
shard's virtual clock at t=0 until the drain.

The fleet is the production-shaped one every bench scenario uses: 2
shards, the 12 default tenants, proportional tickets (300 s base, 6x),
degraded admission down to -120 s of slack and at most 60 jobs in the
system. The request count is a fixed function of ``--seconds`` so the
drained ``fleet_sha256`` is a pure function of ``(seed, seconds)``.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

N_SHARDS = 2
FLEET_SEED = 2024
MEAN_BURST_JOBS = 8.0


@dataclass(frozen=True)
class Shape:
    """What one HTTP workload sends."""

    executor: str
    #: Virtual arrival rate per shard, jobs per simulated second.
    rate_per_shard: float
    #: Follow every POST /v1/jobs with a POST /v1/quotes for the same tenant.
    quotes: bool
    #: POST /v1/jobs requests per second of ``--seconds``, calibrated so a
    #: run's submit phase takes about that long at the 44 ms request
    #: floor of the served fleet.
    submits_per_s: float


SHAPES = {
    # Below 0.05 jobs/s per shard nearly every job is admitted and the
    # backlog does not grow with run length.
    "http_nominal": Shape("multiprocess", 0.04, False, 20.0),
    # 1000x the nominal rate: nearly every job is shed as in_system.
    "http_overload": Shape("inprocess", 50.0, True, 10.0),
}


def fleet_config(executor: str) -> Any:
    from repro.fleet import FleetConfig
    from repro.metrics.tickets import ProportionalTicket
    from repro.service import SLAPolicy

    return FleetConfig(
        n_shards=N_SHARDS,
        seed=FLEET_SEED,
        scheduler="Op",
        executor=executor,
        policy=SLAPolicy(
            ticket=ProportionalTicket(base_s=300.0, factor=6.0),
            degraded_slack_s=-120.0,
            max_in_system=60,
        ),
    )


def schedule(shape: Shape, seed: int, seconds: int) -> list[tuple[float, str, int]]:
    """``(arrival_time_s, tenant, n_jobs)`` per POST /v1/jobs, in send order.

    Each shard draws its own compound Poisson stream over the tenants
    routed to it; the streams are merged by virtual time, so arrivals are
    non-decreasing per shard as the broker requires.
    """
    import numpy as np
    from repro.fleet import default_registry

    registry = default_registry()
    per_shard = max(1, round(seconds * shape.submits_per_s / N_SHARDS))
    events = []
    for shard in range(N_SHARDS):
        tenants = [t.tenant_id for t in registry.tenants_for_shard(shard, N_SHARDS)]
        rng = np.random.default_rng([seed, shard])
        t = 0.0
        for _ in range(per_shard):
            t += float(rng.exponential(MEAN_BURST_JOBS / shape.rate_per_shard))
            size = 1 + int(rng.poisson(MEAN_BURST_JOBS - 1.0))
            events.append((t, shard, tenants[int(rng.integers(len(tenants)))], size))
    events.sort()
    return [(t, tenant, size) for t, _, tenant, size in events]


@dataclass
class Load:
    """What the client saw during the submit phase."""

    submit_s: list[float] = field(default_factory=list)
    quote_s: list[float] = field(default_factory=list)
    #: When each cycle (a submit plus its quote, if any) was sent, and the
    #: jobs it submitted; ``end`` is when the last reply came back.
    cycle_start: list[float] = field(default_factory=list)
    cycle_jobs: list[int] = field(default_factory=list)
    end: float = 0.0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    jobs: int = 0
    #: Submissions whose echoed arrival time is not the one sent.
    unstamped: int = 0


def drive(url: str, shape: Shape, sched: list[tuple[float, str, int]]) -> Load:
    """Send the schedule in a closed loop over one keep-alive connection."""
    from repro.fleet.client import FleetAPIError, FleetClient

    failures = (FleetAPIError, http.client.HTTPException, OSError)
    load = Load()
    with FleetClient(url) as client:
        for arrival_s, tenant, n_jobs in sched:
            load.attempted += 1
            sent = time.perf_counter()
            load.cycle_start.append(sent)
            load.cycle_jobs.append(0)
            try:
                result = client.submit(tenant, n_jobs, arrival_time_s=arrival_s)
            except failures as exc:
                load.errors.append(f"POST /v1/jobs: {exc}")
                continue
            load.submit_s.append(time.perf_counter() - sent)
            if result.arrival_time_s != arrival_s:
                load.unstamped += 1
            load.jobs += len(result.outcomes)
            load.cycle_jobs[-1] = len(result.outcomes)
            if shape.quotes:
                load.attempted += 1
                sent = time.perf_counter()
                try:
                    client.quote(tenant)
                except failures as exc:
                    load.errors.append(f"POST /v1/quotes: {exc}")
                    continue
                load.quote_s.append(time.perf_counter() - sent)
        load.end = time.perf_counter()
    return load


def worker_cpu_s(url: str) -> dict[str, float]:
    """Worker CPU seconds per op, from ``fleet_worker_command_cpu_seconds``."""
    from repro.fleet.client import FleetClient

    with FleetClient(url) as client:
        family = client.metrics().family("fleet_worker_command_cpu_seconds")
    out: dict[str, float] = {}
    for sample in family.samples:
        if sample.name.endswith("_sum"):
            op = sample.label("op")
            out[op] = out.get(op, 0.0) + sample.value
    return out


# ----------------------------------------------------------------------
# Server in a subprocess (untraced runs)
# ----------------------------------------------------------------------
def child_env(root: Path) -> dict[str, str]:
    """Environment for a benchmark child process: the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


class ServerProcess:
    """``python3 -m perfbench.server`` from spawn until every shard is up."""

    def __init__(self, root: Path, executor: str, report: Path) -> None:
        from repro.fleet.client import FleetClient

        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server",
             "--executor", executor, "--report", str(report)],
            cwd=root,
            env=child_env(root),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert self.proc.stdout is not None
            self.url = self.proc.stdout.readline().strip()
            if not self.url.startswith("http://"):
                raise RuntimeError(f"fleet server did not start: {self.url!r}")
            # The request waits in the listen backlog until the fleet is
            # built and the server loop runs.
            with FleetClient(self.url, timeout_s=120.0) as client:
                health = client.health()
            if health.status != "ok" or health.n_shards != N_SHARDS:
                raise RuntimeError(f"fleet not healthy: {health}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def drain(self) -> float:
        """SIGTERM, then wait for the server to exit; returns the seconds."""
        assert self.proc.stdout is not None
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=120)
        drain_s = time.perf_counter() - t0
        # The server printed its last line before it exited. Orphaned
        # workers of a server that died may still hold the pipe open, so
        # read only what is there.
        ready, _, _ = select.select([self.proc.stdout], [], [], 0)
        line = self.proc.stdout.readline().strip() if ready else ""
        if line != "drained":
            raise RuntimeError(f"fleet server did not drain: {line!r}")
        return drain_s

    def kill(self) -> None:
        """Stop the server if it still runs; SIGTERM first so it stops its workers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@dataclass
class Served:
    """One untraced HTTP run."""

    load: Load
    report: dict[str, Any]
    peak_rss_mb: float
    setup_s: list[float]
    drain_s: float


def run_subprocess(
    root: Path, shape: Shape, sched: list[tuple[float, str, int]], out: Path,
    setups: int,
) -> Served:
    """Spawn the server ``setups`` times (all timed), load and drain the last."""
    out.mkdir(parents=True, exist_ok=True)
    report = out / "report.json"
    setup_s = []
    for _ in range(setups - 1):
        server = ServerProcess(root, shape.executor, report)
        setup_s.append(server.setup_s)
        try:
            server.drain()
        finally:
            server.kill()
    server = ServerProcess(root, shape.executor, report)
    setup_s.append(server.setup_s)
    try:
        load = drive(server.url, shape, sched)
        drain_s = server.drain()
    finally:
        server.kill()
    served = json.loads(report.read_text())
    return Served(
        load=load,
        report=served["report"],
        peak_rss_mb=served["peak_rss_mb"],
        setup_s=setup_s,
        drain_s=drain_s,
    )


# ----------------------------------------------------------------------
# Server on a thread of this process (traced runs)
# ----------------------------------------------------------------------
@dataclass
class InThread:
    """One HTTP run with the server hosted in this process."""

    load: Load
    report: Any
    wall_s: float
    worker_cpu_s: dict[str, float]


def run_in_thread(
    shape: Shape, sched: list[tuple[float, str, int]], tracer: Optional[Any] = None
) -> InThread:
    """Build, load and drain a fleet served from a thread of this process.

    With a tracer, its wrappers are installed for exactly this call, so
    the traced window covers set-up, the submit phase and the drain.
    """
    from repro.fleet import FleetManager, default_registry
    from repro.fleet.api import FleetAPIServer

    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        server = FleetAPIServer(None, port=0)
        manager = FleetManager(fleet_config(shape.executor), default_registry())
        server.attach(manager)
        thread = threading.Thread(target=server.serve_forever, name="fleet-api")
        thread.start()
        try:
            load = drive(server.url, shape, sched)
            cpu = worker_cpu_s(server.url) if shape.executor == "multiprocess" else {}
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
            # Drains and stops the workers even after a failed load.
            report = manager.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return InThread(
        load=load, report=report, wall_s=time.perf_counter() - t0, worker_cpu_s=cpu
    )
