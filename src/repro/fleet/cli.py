"""``repro fleet`` — serve and load-drive a sharded fleet.

Subcommands (registered into the unified ``repro`` parser):

* ``repro fleet serve`` — stand up the HTTP/JSON front over a fresh
  fleet and serve until interrupted.
* ``repro fleet loadgen`` — the aggregate heavy-traffic driver: per-shard
  open-loop arrival streams, fleet-wide throughput figures, merged
  report with the fleet SHA-256. ``--format markdown|json`` prints only
  the aggregated multi-tenant report (json adds the obs snapshot);
  ``--executor multiprocess`` fans the shards out to one worker process
  each; ``--strict`` exits nonzero if any shard was lost. ``--url``
  instead replays the same per-shard schedule against a *served* fleet
  over HTTP through the typed :class:`~repro.fleet.client.FleetClient`.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
from pathlib import Path

__all__ = ["register_fleet_commands"]


def _fleet_config(args: argparse.Namespace) -> "object":
    from ..sim.environment import SystemConfig
    from ..workload.distributions import Bucket
    from .sharding import FleetConfig

    return FleetConfig(
        n_shards=args.shards,
        seed=args.seed,
        scheduler=args.scheduler,
        system=SystemConfig(),
        bucket=Bucket(args.bucket),
        executor=args.executor,
    )


def _registry(args: argparse.Namespace) -> "object":
    from .tenants import default_registry

    return default_registry(args.tenants)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import serve_fleet

    serve_fleet(
        _fleet_config(args),
        registry=_registry(args),
        host=args.host,
        port=args.port,
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from ..service import LoadGenConfig
    from ..workload.distributions import Bucket
    from . import loadgen

    if args.url and (args.format != "text" or args.strict):
        print(
            "repro fleet loadgen: --format markdown|json and --strict need "
            "the in-process fleet; drop them or --url",
            file=sys.stderr,
        )
        return 2
    try:
        load = LoadGenConfig(
            n_jobs=args.jobs,
            rate_per_s=args.rate,
            process=args.process,
            mean_burst_jobs=args.mean_burst,
            bucket=Bucket(args.bucket),
            seed=args.seed,
        )
        fleet = None if args.url else _fleet_config(args)
    except ValueError as exc:
        print(f"repro fleet loadgen: {exc}", file=sys.stderr)
        return 2
    if args.url:
        from .client import FleetAPIError

        try:
            text = loadgen.run_client_load(args.url, load).render()
        except (OSError, http.client.HTTPException, FleetAPIError) as exc:
            print(f"repro fleet loadgen: {args.url}: {exc}", file=sys.stderr)
            return 1
    else:
        result = loadgen.run_fleet_load(fleet, load, registry=_registry(args))
        if args.format == "json":
            text = json.dumps(result.report.as_dict(), indent=2)
        elif args.format == "markdown":
            text = result.report.render_markdown()
        else:
            text = result.render()
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")
    if not args.url and args.strict and result.lost_shards:
        print(
            f"strict: {len(result.lost_shards)} shard(s) lost",
            file=sys.stderr,
        )
        return 3
    return 0


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    from ..experiments.runner import SCHEDULER_NAMES
    from .executor import EXECUTOR_NAMES

    parser.add_argument("--shards", type=int, default=4,
                        help="number of independent broker partitions")
    parser.add_argument("--tenants", type=int, default=12,
                        help="size of the demo tenant population")
    parser.add_argument("--scheduler", default="Op", choices=SCHEDULER_NAMES)
    parser.add_argument("--bucket", default="uniform",
                        choices=["small", "uniform", "large"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--executor", default="inprocess",
                        choices=list(EXECUTOR_NAMES),
                        help="who drives the shards: this process, or one "
                             "spawned worker process per shard")


def register_fleet_commands(sub: "argparse._SubParsersAction") -> None:
    """Attach the ``fleet`` subcommand group to the ``repro`` parser."""
    p_fleet = sub.add_parser(
        "fleet",
        help="sharded multi-tenant broker: HTTP front and load driver",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    p_serve = fleet_sub.add_parser(
        "serve", help="serve the HTTP/JSON API over a fresh fleet"
    )
    _add_common_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 lets the OS pick)")
    p_serve.set_defaults(func=_cmd_serve)

    p_load = fleet_sub.add_parser(
        "loadgen", help="aggregate heavy-traffic load run across all shards"
    )
    _add_common_args(p_load)
    p_load.add_argument("--jobs", type=int, default=100_000,
                        help="fleet-wide total jobs")
    p_load.add_argument("--rate", type=float, default=50.0,
                        help="per-shard long-run arrival rate, jobs/simulated s")
    p_load.add_argument("--process", default="bursty",
                        choices=["poisson", "bursty"])
    p_load.add_argument("--mean-burst", type=float, default=10.0)
    p_load.add_argument("--out", default=None,
                        help="also write the rendered summary to a file")
    p_load.add_argument("--strict", action="store_true",
                        help="exit 3 if any shard was lost mid-run")
    p_load.add_argument("--format", default="text",
                        choices=["text", "markdown", "json"],
                        help="text: load figures plus report; markdown and "
                             "json: the aggregated report's tenant rows "
                             "only (json adds the obs snapshot stamped "
                             "with the fleet sha)")
    p_load.add_argument("--url", default=None,
                        help="replay the same schedule against an "
                             "already-served fleet over HTTP via "
                             "FleetClient instead of running one in-process")
    p_load.set_defaults(func=_cmd_loadgen)
