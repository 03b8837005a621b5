"""Fleet server process of the untraced HTTP runs.

    python3 -m perfbench.server --executor inprocess|multiprocess --report PATH

Binds port 0 on 127.0.0.1 and prints the URL, builds the benchmark's
fleet behind the bound socket (``FleetAPIServer`` + ``FleetManager``)
and serves it. On SIGTERM it drains the fleet, writes
``{"report": FleetReport.as_dict(), "peak_rss_mb"}`` to the report path
and prints ``drained``.

``peak_rss_mb`` sums the peak resident sets (``VmHWM``) of this process
and every shard worker, the drain included: the workers' peaks are polled
until they exit.
"""

from __future__ import annotations

import argparse
import atexit
import json
import signal
import threading
from pathlib import Path

from . import procstat
from .served import fleet_config

#: Seconds between reads of the workers' peaks during the drain.
POLL_S = 0.005


def _on_term(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--executor", required=True)
    parser.add_argument("--report", type=Path, required=True)
    args = parser.parse_args()
    atexit.register(procstat.stop_children)

    from repro.fleet import FleetManager, default_registry
    from repro.fleet.api import FleetAPIServer

    signal.signal(signal.SIGTERM, _on_term)
    server = FleetAPIServer(None, port=0)
    print(server.url, flush=True)
    manager = FleetManager(fleet_config(args.executor), default_registry())
    server.attach(manager)
    workers = [h.pid for h in manager.health() if h.pid is not None]
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()

    # VmHWM only grows, so the last read before a worker exits is its peak.
    peaks = {pid: procstat.peak_rss_mb(pid) for pid in workers}
    done = threading.Event()

    def poll() -> None:
        while not done.wait(POLL_S):
            for pid in workers:
                try:
                    peaks[pid] = procstat.peak_rss_mb(pid)
                except (OSError, RuntimeError):
                    pass  # exited: gone, or a zombie with no memory left

    poller = threading.Thread(target=poll, name="peak-rss")
    poller.start()
    try:
        report = manager.finish()
    finally:
        done.set()
        poller.join()
    peak_rss_mb = procstat.peak_rss_mb() + sum(peaks.values())
    args.report.write_text(
        json.dumps({"report": report.as_dict(), "peak_rss_mb": peak_rss_mb})
    )
    print("drained", flush=True)


if __name__ == "__main__":
    main()
